#include "mechanisms/mixzone.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>

#include "geo/grid_index.h"
#include "util/simd.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv::mech {
namespace {

/// Flattened event reference used during detection.
struct FlatEvent {
  std::uint32_t trace = 0;
  std::uint32_t index = 0;  // within the trace
  geo::Point2 position;
  util::Timestamp time = 0;
  model::UserId user = model::kInvalidUser;
};

/// A maximal in-zone run of one trace.
struct ZonePassage {
  std::uint32_t trace = 0;
  model::UserId user = model::kInvalidUser;
  util::Timestamp enter = 0;
  util::Timestamp exit = 0;
  std::uint32_t first_event = 0;
  std::uint32_t last_event = 0;  // inclusive
};

/// One output trace as bare columns — the mechanism's native result form.
/// ApplyToStoreWithReport concatenates them into EventStore columns
/// without ever building an Event.
struct StitchedColumns {
  model::UserId user = model::kInvalidUser;
  std::vector<double> lat, lng;
  std::vector<util::Timestamp> time;
  [[nodiscard]] std::size_t size() const noexcept { return time.size(); }
};

/// Cell-bucketed CSR layout of the flat events, replacing per-event
/// GridIndex radius queries in the detection hot loop. Events are grouped
/// by grid cell into contiguous SoA slices ordered by (time, flat id), so
///   * a cell scan streams packed x/y/time/user arrays (no intrusive-chain
///     pointer chasing), and
///   * the meeting rule's |Δt| <= w test selects one contiguous time
///     window of each neighbour cell's slice (a binary search, or a
///     forward-moving bound when events are swept in time order), and
///     candidates outside it are never visited.
/// The zone-hit scan (step 3) reads whole slices and sorts its hits, so
/// the slice order does not reach it.
class EventCellGrid {
 public:
  /// Neighbors() entries from this one on are the cells after a cell in
  /// (dx, dy) row-major order: (0, 1), (1, -1), (1, 0) and (1, 1).
  static constexpr std::size_t kForwardNeighbors = 5;

  EventCellGrid(double cell_size, const std::vector<FlatEvent>& flat)
      : cell_size_(cell_size) {
    const std::size_t n = flat.size();
    event_cell_.resize(n);

    // Open-addressed (cx, cy) -> dense cell id table (power-of-two,
    // linear probing; sized once — n events bound the live cell count).
    std::size_t capacity = 16;
    while (capacity * 3 / 4 < n + 1) capacity *= 2;
    tab_cx_.assign(capacity, 0);
    tab_cy_.assign(capacity, 0);
    tab_cell_.assign(capacity, -1);

    std::vector<std::uint32_t> counts;
    for (std::size_t id = 0; id < n; ++id) {
      const std::int64_t cx = geo::CellCoord(flat[id].position.x / cell_size_);
      const std::int64_t cy = geo::CellCoord(flat[id].position.y / cell_size_);
      const std::size_t mask = capacity - 1;
      std::size_t i = Hash(cx, cy) & mask;
      while (tab_cell_[i] != -1 &&
             (tab_cx_[i] != cx || tab_cy_[i] != cy)) {
        i = (i + 1) & mask;
      }
      if (tab_cell_[i] == -1) {
        tab_cx_[i] = cx;
        tab_cy_[i] = cy;
        tab_cell_[i] = static_cast<std::int32_t>(counts.size());
        counts.push_back(0);
        cell_cx_.push_back(cx);
        cell_cy_.push_back(cy);
      }
      event_cell_[id] = tab_cell_[i];
      ++counts[static_cast<std::size_t>(tab_cell_[i])];
    }

    // Per-cell 3x3 neighbour table, resolved once: the detection loop
    // then costs one array load per event instead of nine hash probes.
    // Entry order is (dx, dy) row-major, the order meetings are emitted
    // in; entry 4 is the cell itself.
    neighbors_.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      int k = 0;
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          neighbors_[c][static_cast<std::size_t>(k++)] =
              Find(geo::CellStep(cell_cx_[c], dx),
                   geo::CellStep(cell_cy_[c], dy));
        }
      }
    }

    begin_.resize(counts.size() + 1, 0);
    for (std::size_t c = 0; c < counts.size(); ++c) {
      begin_[c + 1] = begin_[c] + counts[c];
    }
    id_.resize(n);
    std::vector<std::uint32_t> fill(counts.size(), 0);
    for (std::size_t id = 0; id < n; ++id) {
      const auto cell = static_cast<std::size_t>(event_cell_[id]);
      id_[begin_[cell] + fill[cell]++] = static_cast<std::uint32_t>(id);
    }
    // Each slice is sorted to (time, id) order, then its SoA columns are
    // gathered.
    x_.resize(n);
    y_.resize(n);
    time_.resize(n);
    user_.resize(n);
    util::ParallelForEach(counts.size(), [&](std::size_t c) {
      const auto first = id_.begin() + static_cast<std::ptrdiff_t>(begin_[c]);
      const auto last =
          id_.begin() + static_cast<std::ptrdiff_t>(begin_[c + 1]);
      std::sort(first, last, [&](std::uint32_t a, std::uint32_t b) {
        return flat[a].time < flat[b].time ||
               (flat[a].time == flat[b].time && a < b);
      });
      for (std::size_t pos = begin_[c]; pos < begin_[c + 1]; ++pos) {
        const FlatEvent& e = flat[id_[pos]];
        x_[pos] = e.position.x;
        y_[pos] = e.position.y;
        time_[pos] = e.time;
        user_[pos] = e.user;
      }
    });
  }

  /// Dense cell id for grid coordinates, or -1 when the cell is empty.
  [[nodiscard]] std::int32_t Find(std::int64_t cx,
                                  std::int64_t cy) const noexcept {
    const std::size_t mask = tab_cell_.size() - 1;
    std::size_t i = Hash(cx, cy) & mask;
    while (tab_cell_[i] != -1) {
      if (tab_cx_[i] == cx && tab_cy_[i] == cy) return tab_cell_[i];
      i = (i + 1) & mask;
    }
    return -1;
  }

  /// Dense cell id of event `id`, and that cell's resolved 3x3
  /// neighbourhood in (dx, dy) row-major scan order (-1 = empty cell).
  [[nodiscard]] std::int32_t EventCell(std::size_t id) const {
    return event_cell_[id];
  }
  [[nodiscard]] const std::array<std::int32_t, 9>& Neighbors(
      std::int32_t cell) const {
    return neighbors_[static_cast<std::size_t>(cell)];
  }

  /// [begin, end) slice of a dense cell in the SoA arrays.
  [[nodiscard]] std::size_t CellBegin(std::int32_t cell) const {
    return begin_[static_cast<std::size_t>(cell)];
  }
  [[nodiscard]] std::size_t CellEnd(std::int32_t cell) const {
    return begin_[static_cast<std::size_t>(cell) + 1];
  }

  /// [begin, end) of the cell's events with time in [lo, hi] (empty when
  /// lo > hi).
  [[nodiscard]] std::pair<std::size_t, std::size_t> TimeWindow(
      std::int32_t cell, util::Timestamp lo, util::Timestamp hi) const {
    const auto first =
        time_.begin() + static_cast<std::ptrdiff_t>(CellBegin(cell));
    const auto last =
        time_.begin() + static_cast<std::ptrdiff_t>(CellEnd(cell));
    const auto from = std::lower_bound(first, last, lo);
    return {static_cast<std::size_t>(from - time_.begin()),
            static_cast<std::size_t>(std::upper_bound(from, last, hi) -
                                     time_.begin())};
  }

  [[nodiscard]] std::size_t CellCount() const noexcept {
    return neighbors_.size();
  }
  /// Grid coordinates of a dense cell: its events satisfy
  /// CellCoord(x / cell_size) == CellX(cell), and likewise for y.
  [[nodiscard]] std::int64_t CellX(std::int32_t cell) const {
    return cell_cx_[static_cast<std::size_t>(cell)];
  }
  [[nodiscard]] std::int64_t CellY(std::int32_t cell) const {
    return cell_cy_[static_cast<std::size_t>(cell)];
  }
  [[nodiscard]] double cell_size() const noexcept { return cell_size_; }
  [[nodiscard]] double x(std::size_t i) const { return x_[i]; }
  [[nodiscard]] double y(std::size_t i) const { return y_[i]; }
  [[nodiscard]] util::Timestamp time(std::size_t i) const { return time_[i]; }
  [[nodiscard]] model::UserId user(std::size_t i) const { return user_[i]; }
  [[nodiscard]] std::uint32_t id(std::size_t i) const { return id_[i]; }

  /// Contiguous coordinate slices, the vector scans' load targets.
  [[nodiscard]] const double* x_data() const noexcept { return x_.data(); }
  [[nodiscard]] const double* y_data() const noexcept { return y_.data(); }

 private:
  [[nodiscard]] static std::size_t Hash(std::int64_t cx,
                                        std::int64_t cy) noexcept {
    return geo::HashCell2D(cx, cy);
  }

  double cell_size_;
  std::vector<std::int64_t> tab_cx_, tab_cy_;
  std::vector<std::int32_t> tab_cell_;
  std::vector<std::int64_t> cell_cx_, cell_cy_;
  std::vector<std::array<std::int32_t, 9>> neighbors_;
  std::vector<std::int32_t> event_cell_;
  std::vector<std::size_t> begin_;
  std::vector<double> x_, y_;
  std::vector<util::Timestamp> time_;
  std::vector<model::UserId> user_;
  std::vector<std::uint32_t> id_;
};

/// The view's events on one dataset-wide tangent plane, centred on its
/// bounding box. Flat slot per event, computed up front so projection
/// parallelizes; the projection itself runs 4 fixes per step with the
/// scalar op order preserved (Project4 lanes are bit-identical to Project).
std::vector<FlatEvent> FlattenAndProject(const model::DatasetView& input) {
  const geo::GeoBoundingBox bbox = input.BoundingBox();
  const geo::LocalProjection projection(
      bbox.IsEmpty() ? geo::LatLng{0.0, 0.0} : bbox.Center());
  const auto& traces = input.traces();
  std::vector<std::size_t> offset(traces.size() + 1, 0);
  for (std::size_t t = 0; t < traces.size(); ++t) {
    offset[t + 1] = offset[t] + traces[t].size();
  }
  std::vector<FlatEvent> flat(offset.back());
  util::ParallelForEach(traces.size(), [&](std::size_t t) {
    using util::F64x4;
    const model::TraceView& trace = traces[t];
    const model::UserId user = trace.user();
    const auto tt = static_cast<std::uint32_t>(t);
    FlatEvent* slot = flat.data() + offset[t];
    std::uint32_t i = 0;
    const auto n = static_cast<std::uint32_t>(trace.size());
    for (; i + util::kSimdWidth <= n; i += util::kSimdWidth) {
      const F64x4 lat = F64x4::Set(trace.lat(i), trace.lat(i + 1),
                                   trace.lat(i + 2), trace.lat(i + 3));
      const F64x4 lng = F64x4::Set(trace.lng(i), trace.lng(i + 1),
                                   trace.lng(i + 2), trace.lng(i + 3));
      F64x4 x, y;
      projection.Project4(lat, lng, x, y);
      double tx[4], ty[4];
      x.Store(tx);
      y.Store(ty);
      for (int k = 0; k < util::kSimdWidth; ++k) {
        slot[i + k] = FlatEvent{tt, i + static_cast<std::uint32_t>(k),
                                geo::Point2{tx[k], ty[k]},
                                trace.time(i + k), user};
      }
    }
    for (; i < n; ++i) {
      const geo::Point2 p = projection.Project(trace.position(i));
      slot[i] = FlatEvent{tt, i, p, trace.time(i), user};
    }
  });
  return flat;
}

/// The times an event at `t` can meet: [t - w, t + w] clamped to the
/// Timestamp range, so the bounds never overflow and a pair meets exactly
/// when its true |Δt| <= w (an empty window when w < 0).
std::pair<util::Timestamp, util::Timestamp> MeetingTimes(util::Timestamp t,
                                                         util::Timestamp w) {
  constexpr util::Timestamp kMin = std::numeric_limits<util::Timestamp>::min();
  constexpr util::Timestamp kMax = std::numeric_limits<util::Timestamp>::max();
  if (w < 0) return {kMax, kMin};
  return {t < kMin + w ? kMin : t - w, t > kMax - w ? kMax : t + w};
}

/// Whether `later - earlier <= w` in exact arithmetic (no overflow).
bool GapAtMost(util::Timestamp earlier, util::Timestamp later,
               util::Timestamp w) {
  const auto e = static_cast<std::uint64_t>(earlier);
  const auto l = static_cast<std::uint64_t>(later);
  if (later >= earlier) return w >= 0 && l - e <= static_cast<std::uint64_t>(w);
  return w >= 0 || e - l >= 0 - static_cast<std::uint64_t>(w);
}

/// Visits, in slice order, every event j in [begin, end) — a time window
/// of one cell's slice — that meets an event of `user` at `a`: another
/// user, and not skipped by d2 > r2. The position test runs 4 candidates
/// per step; its mask is the exact inverse of the scalar skip, so NaN
/// coordinates pass it identically. The user check stays scalar on the
/// surviving lanes.
template <typename Visit>
void ForEachMeeting(const EventCellGrid& grid, std::size_t begin,
                    std::size_t end, geo::Point2 a, model::UserId user,
                    double r_sq, Visit&& visit) {
  using util::F64x4;
  const auto meet = [&](std::size_t j) {
    if (grid.user(j) != user) visit(j);
  };
  const F64x4 vax = F64x4::Set1(a.x);
  const F64x4 vay = F64x4::Set1(a.y);
  const F64x4 vr2 = F64x4::Set1(r_sq);
  std::size_t j = begin;
  for (; j + util::kSimdWidth <= end; j += util::kSimdWidth) {
    const F64x4 ddx = F64x4::Load(grid.x_data() + j) - vax;
    const F64x4 ddy = F64x4::Load(grid.y_data() + j) - vay;
    // Candidates are the lanes NOT skipped by d2 > r2.
    int m = ~util::MoveMask(util::CmpLt(vr2, ddx * ddx + ddy * ddy)) & 0xF;
    while (m != 0) {
      meet(j + static_cast<std::size_t>(
                   std::countr_zero(static_cast<unsigned>(m))));
      m &= m - 1;
    }
  }
  for (; j < end; ++j) {
    const double ddx = grid.x(j) - a.x;
    const double ddy = grid.y(j) - a.y;
    if (ddx * ddx + ddy * ddy > r_sq) continue;
    meet(j);
  }
}

/// The squared distance as GridIndex tests it: dx * dx + dy * dy.
double DistanceSq(geo::Point2 p, geo::Point2 q) {
  const double dx = p.x - q.x;
  const double dy = p.y - q.y;
  return dx * dx + dy * dy;
}

/// Step 1: the number of encounters — meetings of two distinct users'
/// events within the zone radius and the time window, each counted once.
/// Cells count in parallel, each over half its neighbourhood: the pairs
/// within its own slice, from the earlier slice position, and its pairs
/// with the cells after it (Neighbors() from kForwardNeighbors on).
/// CellStep wraps, so the neighbour relation is symmetric and every pair
/// of events in adjacent cells is tested exactly once; the d2 and
/// |Δt| <= w tests are symmetric bit for bit. Slices are in time order, so
/// each neighbour's time window only moves forward and is never searched
/// for. The sum does not depend on the worker count. When `meets` is
/// given, it is sized to the events and marks the lower flat id of every
/// meeting pair (the events step 2 visits); the marks are idempotent
/// relaxed atomic stores, so neither does the marked set.
std::size_t CountMeetings(const MixZoneConfig& config,
                          const std::vector<FlatEvent>& flat,
                          const EventCellGrid& grid,
                          std::vector<std::uint8_t>* meets = nullptr) {
  if (meets != nullptr) meets->assign(flat.size(), 0);
  const double r_sq = config.zone_radius_m * config.zone_radius_m;
  const util::Timestamp window = config.time_window_s;
  std::vector<std::size_t> cell_count(grid.CellCount(), 0);
  util::ParallelForEach(grid.CellCount(), [&](std::size_t c) {
    const auto cell = static_cast<std::int32_t>(c);
    const std::size_t cell_end = grid.CellEnd(cell);
    std::size_t count = 0;
    // Counts event i's meetings among [lo, hi) and marks their lower ids.
    const auto scan = [&](std::size_t i, std::size_t lo, std::size_t hi) {
      const std::uint32_t id = grid.id(i);
      ForEachMeeting(grid, lo, hi, {grid.x(i), grid.y(i)}, grid.user(i),
                     r_sq, [&](std::size_t j) {
                       ++count;
                       if (meets != nullptr) {
                         std::atomic_ref<std::uint8_t>(
                             (*meets)[std::min(id, grid.id(j))])
                             .store(1, std::memory_order_relaxed);
                       }
                     });
    };
    std::size_t hi = grid.CellBegin(cell);
    for (std::size_t i = grid.CellBegin(cell); i < cell_end; ++i) {
      const util::Timestamp t_hi = MeetingTimes(grid.time(i), window).second;
      hi = std::max(hi, i + 1);
      while (hi < cell_end && grid.time(hi) <= t_hi) ++hi;
      scan(i, i + 1, hi);
    }
    const auto& neighbors = grid.Neighbors(cell);
    for (std::size_t k = EventCellGrid::kForwardNeighbors; k < neighbors.size();
         ++k) {
      const std::int32_t other = neighbors[k];
      if (other < 0) continue;
      const std::size_t other_end = grid.CellEnd(other);
      std::size_t lo = grid.CellBegin(other);
      hi = lo;
      for (std::size_t i = grid.CellBegin(cell); i < cell_end; ++i) {
        const auto [t_lo, t_hi] = MeetingTimes(grid.time(i), window);
        while (lo < other_end && grid.time(lo) < t_lo) ++lo;
        hi = std::max(hi, lo);
        while (hi < other_end && grid.time(hi) <= t_hi) ++hi;
        scan(i, lo, hi);
      }
    }
    cell_count[c] = count;
  });
  return std::accumulate(cell_count.begin(), cell_count.end(),
                         std::size_t{0});
}

/// Step 2: greedy first-fit zone placement, fused with the meeting scan
/// so that no encounter is ever stored. Encounters are generated in one
/// fixed sequence — events in flat-id order; per event, neighbour cells
/// in (dx, dy) row-major order; per cell, ascending partner id — and each
/// midpoint becomes a new zone centre unless GridIndex::AnyWithin finds an
/// existing centre within the rejection radius R. Only events marked by
/// CountMeetings have encounters to place.
///
/// Centres only accumulate, so work whose every midpoint an existing
/// centre already rejects is skipped (docs/PERFORMANCE.md, "Mix-zone
/// detection", has the exactness argument). Each event-grid cell lists
/// the centres near it: all within R + r/2 + R/1024 of any of its events,
/// so all that can reject one of their midpoints. An event with a listed
/// centre within R - r/2 - R/1024 is skipped whole. A neighbour cell is
/// not scanned when a listed centre lies within R - R/1024 of its whole
/// midpoint box ((a + cell box) / 2, widened by R/1024), and the other
/// midpoints are tested against the list alone. The R/1024 margins
/// cover the rounding of the midpoint, cell and distance arithmetic while
/// the event lies within 2^30 R of the origin and r² is finite and far
/// from underflow; beyond that — and for NaN or infinite coordinates,
/// whose NaN midpoints are inserted as centres — every midpoint is probed
/// in the index.
std::vector<geo::Point2> PlaceZones(const MixZoneConfig& config,
                                    const std::vector<FlatEvent>& flat,
                                    const EventCellGrid& grid,
                                    const std::vector<std::uint8_t>& meets) {
  const double radius = config.zone_radius_m;  // r: meeting distance
  const double r_sq = radius * radius;
  const double reject_radius = config.zone_radius_m;  // R
  const double reject_sq = reject_radius * reject_radius;
  const double margin = reject_radius / 1024.0;
  const double skip_radius = reject_radius - radius / 2.0 - margin;
  const double skip_sq = skip_radius * skip_radius;
  const double gather_radius = reject_radius + radius / 2.0 + margin;
  const double cover_sq = (reject_radius - margin) * (reject_radius - margin);
  const bool shortcut = skip_radius > 0.0 && r_sq >= 0x1p-1000 &&
                        r_sq < std::numeric_limits<double>::infinity();
  const double bound = shortcut ? reject_radius * 0x1p30 : -1.0;
  const double cell_size = grid.cell_size();
  std::vector<geo::Point2> centers;
  geo::GridIndex center_index(reject_radius);
  // Per event-grid cell, the centres whose grid cell lies within `span`
  // cells of it: every centre within the gather radius of its events,
  // and so every centre that can reject one of their midpoints.
  std::vector<std::vector<geo::Point2>> cell_centers(grid.CellCount());
  const auto span =
      static_cast<std::int64_t>(gather_radius / cell_size) + 1;
  std::vector<std::uint32_t> partners;

  const auto add_center = [&](geo::Point2 c) {
    center_index.Insert(c, static_cast<std::uint64_t>(centers.size()));
    centers.push_back(c);
    if (!shortcut) return;
    const std::int64_t cx = geo::CellCoord(c.x / cell_size);
    const std::int64_t cy = geo::CellCoord(c.y / cell_size);
    for (std::int64_t dx = -span; dx <= span; ++dx) {
      for (std::int64_t dy = -span; dy <= span; ++dy) {
        const std::int32_t cell =
            grid.Find(geo::CellStep(cx, dx), geo::CellStep(cy, dy));
        if (cell >= 0) {
          cell_centers[static_cast<std::size_t>(cell)].push_back(c);
        }
      }
    }
  };
  // AnyWithin(mid, R) over a cell's list: the index's d2 <= R2 test, on
  // the centres of the 3x3 index cells around mid's.
  const auto adjacent = [&](double p, double q) {
    return static_cast<std::uint64_t>(geo::CellCoord(p / reject_radius)) -
               static_cast<std::uint64_t>(geo::CellCoord(q / reject_radius)) +
               1 <=
           2;
  };
  const auto near_rejects = [&](const std::vector<geo::Point2>& near,
                                geo::Point2 mid) {
    return std::any_of(near.begin(), near.end(), [&](geo::Point2 c) {
      return DistanceSq(c, mid) <= reject_sq && adjacent(c.x, mid.x) &&
             adjacent(c.y, mid.y);
    });
  };
  // Whether a listed centre rejects every midpoint of `a` with an event of
  // `cell`: their box's farthest corner is within R - R/1024 of it.
  const auto covered = [&](const std::vector<geo::Point2>& near,
                           geo::Point2 a, std::int32_t cell) {
    const double x0 = static_cast<double>(grid.CellX(cell)) * cell_size;
    const double y0 = static_cast<double>(grid.CellY(cell)) * cell_size;
    const double lo_x = (a.x + x0) / 2.0 - margin;
    const double hi_x = (a.x + x0 + cell_size) / 2.0 + margin;
    const double lo_y = (a.y + y0) / 2.0 - margin;
    const double hi_y = (a.y + y0 + cell_size) / 2.0 + margin;
    return std::any_of(near.begin(), near.end(), [&](geo::Point2 c) {
      const double fx = std::max(std::abs(c.x - lo_x), std::abs(c.x - hi_x));
      const double fy = std::max(std::abs(c.y - lo_y), std::abs(c.y - hi_y));
      return fx * fx + fy * fy <= cover_sq;
    });
  };

  for (std::uint32_t id = 0; id < flat.size(); ++id) {
    if (meets[id] == 0) continue;
    const FlatEvent& a = flat[id];
    const bool bounded = std::abs(a.position.x) <= bound &&
                         std::abs(a.position.y) <= bound;
    const std::vector<geo::Point2>& near =
        cell_centers[static_cast<std::size_t>(grid.EventCell(id))];
    if (bounded && std::any_of(near.begin(), near.end(), [&](geo::Point2 c) {
          return DistanceSq(c, a.position) <= skip_sq;
        })) {
      continue;
    }
    const auto [t_lo, t_hi] = MeetingTimes(a.time, config.time_window_s);
    for (const std::int32_t cell : grid.Neighbors(grid.EventCell(id))) {
      if (cell < 0 || (bounded && covered(near, a.position, cell))) continue;
      const auto [begin, end] = grid.TimeWindow(cell, t_lo, t_hi);
      partners.clear();
      ForEachMeeting(grid, begin, end, a.position, a.user, r_sq,
                     [&](std::size_t j) {
                       if (grid.id(j) > id) {
                         partners.push_back(static_cast<std::uint32_t>(j));
                       }
                     });
      std::sort(partners.begin(), partners.end(),
                [&](std::uint32_t p, std::uint32_t q) {
                  return grid.id(p) < grid.id(q);
                });
      for (const std::uint32_t j : partners) {
        const geo::Point2 mid =
            geo::Midpoint(a.position, {grid.x(j), grid.y(j)});
        if (bounded ? near_rejects(near, mid)
                    : center_index.AnyWithin(mid, reject_radius)) {
          continue;
        }
        add_center(mid);
      }
    }
  }
  return centers;
}

/// Stable per-trace time ordering on columns — the exact permutation
/// Trace::SortByTime (std::stable_sort on time <) applies to events.
void SortColumnsByTime(StitchedColumns& st) {
  if (std::is_sorted(st.time.begin(), st.time.end())) return;
  const std::size_t n = st.time.size();
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return st.time[a] < st.time[b];
                   });
  std::vector<double> lat(n), lng(n);
  std::vector<util::Timestamp> time(n);
  for (std::size_t i = 0; i < n; ++i) {
    lat[i] = st.lat[idx[i]];
    lng[i] = st.lng[idx[i]];
    time[i] = st.time[idx[i]];
  }
  st.lat = std::move(lat);
  st.lng = std::move(lng);
  st.time = std::move(time);
}

/// A zone episode that mixes: the passages of >= min_users distinct users
/// whose in-zone intervals, dilated by the time window, overlap.
struct Occurrence {
  std::size_t zone = 0;  // into MixZoneReport::zones
  std::vector<ZonePassage> passages;
  std::vector<model::UserId> users;  // distinct, ascending
  /// Latest exit among the passages (a maximum from below, so occurrences
  /// of negative times keep their order).
  util::Timestamp end = std::numeric_limits<util::Timestamp>::min();
};

/// The detection pass (steps 1-3 of mixzone.h): projection, encounter
/// count, zone placement, passages and occurrence grouping. Resets
/// `report` and fills its encounters, zones, occurrences,
/// occurrence_details and total_events. Returns the occurrences in the
/// order the publication permutes them (by end time), index-aligned with
/// report.occurrence_details.
std::vector<Occurrence> DetectOccurrences(const MixZoneConfig& config,
                                          const model::DatasetView& input,
                                          MixZoneReport& report) {
  report = MixZoneReport{};
  report.total_events = input.EventCount();
  const std::vector<FlatEvent> flat = FlattenAndProject(input);

  // ---- 1 & 2. Encounter count and zone placement over the event grid.
  const double radius = config.zone_radius_m;
  const double r_sq = radius * radius;
  const EventCellGrid grid(radius, flat);
  std::vector<std::uint8_t> meets;
  report.encounters = CountMeetings(config, flat, grid, &meets);
  const std::vector<geo::Point2> zone_centers =
      PlaceZones(config, flat, grid, meets);

  // ---- 3. Per-zone passages and occurrence grouping. ----
  // Every zone's passage/occurrence detection is independent: compute them
  // in parallel into per-zone outcomes, then merge in zone order so the
  // result is identical to the serial zone-by-zone scan.
  struct ZoneOutcome {
    MixZoneInfo info;
    std::vector<Occurrence> occurrences;
  };
  std::vector<ZoneOutcome> outcomes(zone_centers.size());
  util::ParallelForEach(zone_centers.size(), [&](std::size_t z) {
    using util::F64x4;
    ZoneOutcome& outcome = outcomes[z];
    const geo::Point2 center = zone_centers[z];
    // In-zone events come straight from the event grid; a passage is a
    // maximal run of consecutive fixes of one trace inside the disc, i.e.
    // a maximal run of consecutive flat indices among the hits (flat ids
    // are assigned per trace in time order). Traces that never touch the
    // zone cost nothing. The disc test runs 4 events per step (the same
    // d2 <= r2 predicate as the scalar tail).
    std::vector<std::uint64_t> hits;
    const F64x4 vcx = F64x4::Set1(center.x);
    const F64x4 vcy = F64x4::Set1(center.y);
    const F64x4 vr2 = F64x4::Set1(r_sq);
    const std::int64_t ccx = geo::CellCoord(center.x / radius);
    const std::int64_t ccy = geo::CellCoord(center.y / radius);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const std::int32_t cell =
            grid.Find(geo::CellStep(ccx, dx), geo::CellStep(ccy, dy));
        if (cell < 0) continue;
        const std::size_t end = grid.CellEnd(cell);
        std::size_t j = grid.CellBegin(cell);
        for (; j + util::kSimdWidth <= end; j += util::kSimdWidth) {
          const F64x4 ddx = F64x4::Load(grid.x_data() + j) - vcx;
          const F64x4 ddy = F64x4::Load(grid.y_data() + j) - vcy;
          int m = util::MoveMask(util::CmpLe(ddx * ddx + ddy * ddy, vr2));
          while (m != 0) {
            hits.push_back(grid.id(
                j + static_cast<std::size_t>(
                        std::countr_zero(static_cast<unsigned>(m)))));
            m &= m - 1;
          }
        }
        for (; j < end; ++j) {
          const double ddx = grid.x(j) - center.x;
          const double ddy = grid.y(j) - center.y;
          if (ddx * ddx + ddy * ddy <= r_sq) hits.push_back(grid.id(j));
        }
      }
    }
    std::sort(hits.begin(), hits.end());
    std::vector<ZonePassage> passages;
    std::size_t h = 0;
    while (h < hits.size()) {
      const FlatEvent& first = flat[hits[h]];
      std::size_t run_end = h;
      while (run_end + 1 < hits.size() &&
             hits[run_end + 1] == hits[run_end] + 1 &&
             flat[hits[run_end + 1]].trace == first.trace) {
        ++run_end;
      }
      const FlatEvent& last = flat[hits[run_end]];
      passages.push_back(ZonePassage{first.trace, first.user, first.time,
                                     last.time, first.index, last.index});
      h = run_end + 1;
    }
    // Group passages whose intervals (dilated by the time window) overlap.
    std::sort(passages.begin(), passages.end(),
              [](const ZonePassage& a, const ZonePassage& b) {
                return a.enter < b.enter;
              });
    MixZoneInfo& info = outcome.info;
    info.center = center;
    info.radius_m = config.zone_radius_m;
    std::size_t group_start = 0;
    util::Timestamp group_end = std::numeric_limits<util::Timestamp>::min();
    const auto flush_group = [&](std::size_t first, std::size_t last) {
      if (first >= last) return;
      Occurrence occ;
      occ.passages.assign(passages.begin() + static_cast<std::ptrdiff_t>(first),
                          passages.begin() + static_cast<std::ptrdiff_t>(last));
      for (const auto& p : occ.passages) occ.users.push_back(p.user);
      std::sort(occ.users.begin(), occ.users.end());
      occ.users.erase(std::unique(occ.users.begin(), occ.users.end()),
                      occ.users.end());
      if (occ.users.size() < config.min_users) return;
      for (const auto& p : occ.passages) occ.end = std::max(occ.end, p.exit);
      ++info.occurrences;
      info.max_anonymity_set =
          std::max(info.max_anonymity_set, occ.users.size());
      outcome.occurrences.push_back(std::move(occ));
    };
    for (std::size_t k = 0; k < passages.size(); ++k) {
      if (k == group_start) {
        group_end = passages[k].exit;
        continue;
      }
      if (GapAtMost(group_end, passages[k].enter, config.time_window_s)) {
        group_end = std::max(group_end, passages[k].exit);
      } else {
        flush_group(group_start, k);
        group_start = k;
        group_end = passages[k].exit;
      }
    }
    flush_group(group_start, passages.size());
  });

  // Only zones that mix appear in the report.
  std::vector<Occurrence> occurrences;
  for (ZoneOutcome& outcome : outcomes) {
    if (outcome.occurrences.empty()) continue;
    for (Occurrence& occ : outcome.occurrences) {
      occ.zone = report.zones.size();
      occurrences.push_back(std::move(occ));
    }
    report.zones.push_back(outcome.info);
  }
  report.occurrences = occurrences.size();

  // The publication permutes occurrences in the order they end.
  std::sort(occurrences.begin(), occurrences.end(),
            [](const Occurrence& a, const Occurrence& b) {
              return a.end < b.end;
            });
  for (const Occurrence& occ : occurrences) {
    report.occurrence_details.push_back(
        OccurrenceInfo{occ.zone, occ.users, false});
  }
  return occurrences;
}

/// The publication pass (steps 4-5) over the detected `occurrences`:
/// suppression, the identity permutations (marking the drawn
/// non-identity ones in report.occurrence_details) and reassembly — every
/// step except the final packaging of the stitched columns into an
/// EventStore. Output traces arrive per-trace time-sorted, in (ascending
/// final identity, chronological) order.
std::vector<StitchedColumns> Publish(const MixZoneConfig& config,
                                     const model::DatasetView& input,
                                     const std::vector<Occurrence>& occurrences,
                                     util::Rng& rng, MixZoneReport& report) {
  const auto& traces = input.traces();
  // ---- 4. Chronological identity permutation + suppression marking. ----
  std::vector<model::UserId> owner(traces.size());
  std::vector<std::vector<bool>> suppressed(traces.size());
  for (std::uint32_t t = 0; t < traces.size(); ++t) {
    owner[t] = traces[t].user();
    suppressed[t].assign(traces[t].size(), false);
  }
  // Per trace: (time, owner-from-then-on), appended in chronological order.
  std::vector<std::vector<std::pair<util::Timestamp, model::UserId>>>
      switches(traces.size());

  for (std::size_t o = 0; o < occurrences.size(); ++o) {
    const Occurrence& occ = occurrences[o];
    if (config.suppress_zone_points) {
      for (const ZonePassage& p : occ.passages) {
        for (std::uint32_t i = p.first_event; i <= p.last_event; ++i) {
          if (!suppressed[p.trace][i]) {
            suppressed[p.trace][i] = true;
            ++report.suppressed_events;
          }
        }
      }
    }
    // Unique participating traces (a trace can pass the zone twice within
    // one occurrence; it gets a single identity slot).
    std::vector<std::uint32_t> participants;
    for (const ZonePassage& p : occ.passages) participants.push_back(p.trace);
    std::sort(participants.begin(), participants.end());
    participants.erase(
        std::unique(participants.begin(), participants.end()),
        participants.end());

    std::vector<std::size_t> perm(participants.size());
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(std::span<std::size_t>(perm));
    // A sorted permutation is the identity: no swap.
    if (std::is_sorted(perm.begin(), perm.end())) continue;
    report.occurrence_details[o].swapped = true;
    ++report.swaps_applied;

    std::vector<model::UserId> old_owners(participants.size());
    for (std::size_t k = 0; k < participants.size(); ++k) {
      old_owners[k] = owner[participants[k]];
    }
    for (std::size_t k = 0; k < participants.size(); ++k) {
      const model::UserId new_owner = old_owners[perm[k]];
      const std::uint32_t trace_idx = participants[k];
      if (owner[trace_idx] == new_owner) continue;
      owner[trace_idx] = new_owner;
      // The identity changes from this trace's own exit time onwards.
      util::Timestamp exit_time = occ.end;
      for (const ZonePassage& p : occ.passages) {
        if (p.trace == trace_idx) exit_time = p.exit;
      }
      switches[trace_idx].emplace_back(exit_time, new_owner);
    }
  }

  // Within one trace, apply identity switches in time order regardless of
  // the (occurrence-end) order they were generated in.
  for (auto& sw : switches) {
    std::stable_sort(sw.begin(), sw.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }

  // ---- 5. Reassemble output traces under final identities. ----
  // Each input trace is cut into segments at its identity switches; the
  // segments of one identity are then stitched back together only when
  // temporally adjacent (gap <= time window, i.e. the same mixing episode).
  // Pooling an identity's whole day into one trace would fabricate
  // continuity across recording sessions — and the session gap at a POI
  // would hand the attacker exactly the dwell the mechanism hides.
  //
  // Everything below is column-native: segments copy the view's lat/lng/
  // time columns directly and the output stays columns to the end — no
  // model::Event is built anywhere in the mechanism.
  //
  // A segment remembers whether it was severed by a zone (an identity
  // switch), as opposed to simply being the start/end of a recording
  // session. Only zone-severed ends may be stitched to zone-severed starts:
  // that reconnects a pseudonym's stream across the zone (A's prefix +
  // B's suffix) without fabricating continuity across session gaps.
  struct Segment {
    std::vector<double> lat, lng;
    std::vector<util::Timestamp> time;
    bool starts_at_zone = false;  // began right after an identity switch
    bool ends_at_zone = false;    // ended right before an identity switch
    [[nodiscard]] bool empty() const noexcept { return time.empty(); }
  };
  // Segment extraction is per-trace independent (each trace reads only its
  // own switches/suppression), so it fans out on the pool; per-trace
  // segment lists merge in trace order afterwards, reproducing the exact
  // per-identity segment sequence the serial trace-by-trace scan built.
  std::vector<std::vector<std::pair<model::UserId, Segment>>> trace_segments(
      traces.size());
  util::ParallelForEach(traces.size(), [&](std::size_t t) {
    const model::TraceView& trace = traces[t];
    const auto& sw = switches[t];
    auto& out_segments = trace_segments[t];
    Segment current;
    model::UserId current_owner = trace.user();
    for (std::uint32_t i = 0; i < trace.size(); ++i) {
      if (suppressed[t][i]) continue;
      const util::Timestamp time = trace.time(i);
      model::UserId who = trace.user();
      for (const auto& [switch_time, new_owner] : sw) {
        if (time > switch_time) {
          who = new_owner;
        } else {
          break;
        }
      }
      if (who != current_owner && !current.empty()) {
        current.ends_at_zone = true;
        out_segments.emplace_back(current_owner, std::move(current));
        current = Segment{};
        current.starts_at_zone = true;
      }
      current_owner = who;
      current.lat.push_back(trace.lat(i));
      current.lng.push_back(trace.lng(i));
      current.time.push_back(time);
    }
    if (!current.empty()) {
      out_segments.emplace_back(current_owner, std::move(current));
    }
  });
  std::map<model::UserId, std::vector<Segment>> segments;
  for (auto& per_trace : trace_segments) {
    for (auto& [identity, segment] : per_trace) {
      segments[identity].push_back(std::move(segment));
    }
  }

  // Stitching is per-identity independent: each identity sorts and stitches
  // its own segments into traces in parallel, and the per-identity results
  // concatenate in ascending identity order — the order the serial map walk
  // emitted them in. Each finished trace gets a stable per-trace time
  // sort.
  std::vector<std::pair<const model::UserId, std::vector<Segment>>*> by_id;
  by_id.reserve(segments.size());
  for (auto& entry : segments) by_id.push_back(&entry);
  std::vector<std::vector<StitchedColumns>> stitched_traces(by_id.size());
  util::ParallelForEach(by_id.size(), [&](std::size_t k) {
    const model::UserId identity = by_id[k]->first;
    std::vector<Segment>& segs = by_id[k]->second;
    std::sort(segs.begin(), segs.end(),
              [](const Segment& a, const Segment& b) {
                return a.time.front() < b.time.front();
              });
    StitchedColumns stitched;
    stitched.user = identity;
    bool stitched_open_at_zone = false;  // last segment ended at a zone
    const auto flush = [&] {
      if (!stitched.time.empty()) {
        SortColumnsByTime(stitched);
        stitched_traces[k].push_back(std::move(stitched));
        stitched = StitchedColumns{};
        stitched.user = identity;
      }
    };
    for (auto& seg : segs) {
      const bool joinable =
          !stitched.time.empty() && stitched_open_at_zone &&
          seg.starts_at_zone &&
          GapAtMost(stitched.time.back(), seg.time.front(),
                    config.time_window_s);
      if (!joinable) flush();
      stitched.lat.insert(stitched.lat.end(), seg.lat.begin(),
                          seg.lat.end());
      stitched.lng.insert(stitched.lng.end(), seg.lng.begin(),
                          seg.lng.end());
      stitched.time.insert(stitched.time.end(), seg.time.begin(),
                           seg.time.end());
      stitched_open_at_zone = seg.ends_at_zone;
    }
    flush();
  });
  std::vector<StitchedColumns> out;
  std::size_t total_traces = 0;
  for (const auto& identity_traces : stitched_traces) {
    total_traces += identity_traces.size();
  }
  out.reserve(total_traces);
  for (auto& identity_traces : stitched_traces) {
    for (auto& st : identity_traces) {
      out.push_back(std::move(st));
    }
  }
  return out;
}

}  // namespace

std::string MixZoneReport::ToString() const {
  std::ostringstream os;
  os << "zones=" << zones.size() << " occurrences=" << occurrences
     << " encounters=" << encounters << " swaps=" << swaps_applied
     << " suppressed=" << suppressed_events << "/" << total_events << " ("
     << util::FormatDouble(100.0 * SuppressionRatio(), 2) << "%)";
  return os.str();
}

MixZone::MixZone(MixZoneConfig config) : Configured(config) {
  assert(config_.zone_radius_m > 0.0);
  assert(config_.time_window_s > 0);
  assert(config_.min_users >= 2);
}

model::EventStore MixZone::ApplyToStore(const model::DatasetView& input,
                                        util::Rng& rng) const {
  MixZoneReport report;
  return ApplyToStoreWithReport(input, rng, report);
}

model::EventStore MixZone::ApplyToStoreWithReport(
    const model::DatasetView& input, util::Rng& rng,
    MixZoneReport& report) const {
  const std::vector<StitchedColumns> stitched = Publish(
      config_, input, DetectOccurrences(config_, input, report), rng, report);

  // Prefix-sum trace sizes into column offsets, then bulk-copy each
  // stitched trace's columns into its pre-sized slot (disjoint slices, so
  // the copies parallelize freely).
  std::vector<std::size_t> offset(stitched.size() + 1, 0);
  for (std::size_t t = 0; t < stitched.size(); ++t) {
    offset[t + 1] = offset[t] + stitched[t].size();
  }
  const std::size_t total = offset.back();
  std::vector<double> lat(total);
  std::vector<double> lng(total);
  std::vector<util::Timestamp> time(total);
  util::ParallelForEach(stitched.size(), [&](std::size_t t) {
    const StitchedColumns& st = stitched[t];
    const std::size_t at = offset[t];
    std::copy(st.lat.begin(), st.lat.end(), lat.begin() + at);
    std::copy(st.lng.begin(), st.lng.end(), lng.begin() + at);
    std::copy(st.time.begin(), st.time.end(), time.begin() + at);
  });

  std::vector<model::EventStore::TraceRange> table;
  table.reserve(stitched.size());
  for (std::size_t t = 0; t < stitched.size(); ++t) {
    table.push_back(model::EventStore::TraceRange{stitched[t].user,
                                                  offset[t], offset[t + 1]});
  }

  // Names carried through in id order, exactly like the per-trace
  // mechanisms' store path.
  std::vector<std::string> names;
  names.reserve(input.UserCount());
  for (model::UserId id = 0;
       id < static_cast<model::UserId>(input.UserCount()); ++id) {
    names.push_back(input.UserName(id));
  }
  return model::EventStore::FromColumns(std::move(names), std::move(table),
                                        std::move(lat), std::move(lng),
                                        std::move(time));
}

MixZoneReport MixZone::Detect(const model::DatasetView& input) const {
  MixZoneReport report;
  (void)DetectOccurrences(config_, input, report);
  return report;
}

std::size_t MixZone::CountEncounters(const model::DatasetView& input) const {
  const std::vector<FlatEvent> flat = FlattenAndProject(input);
  const EventCellGrid grid(config_.zone_radius_m, flat);
  return CountMeetings(config_, flat, grid);
}

}  // namespace mobipriv::mech
