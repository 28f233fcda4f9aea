// Differential oracle for mix-zone detection. A brute-force detector
// implements the documented rules with no grid, no sweep and no pruning:
// every pair of events is tested for a meeting (distinct users, |Δt| <= w,
// not d2 > r2, in adjacent detector cells), encounters are placed first-fit
// in the documented order (flat id; neighbour cells in (dx, dy) row-major
// order; ascending partner id) against every centre so far, and each
// centre's in-disc events form passages and occurrences. MixZone::Detect
// and CountEncounters must agree with it bit for bit — encounter count,
// zone centres, occurrences — at 1 and 4 workers, on random small worlds
// built to hit the edges of the pruning: all events in one cell, |Δt|
// exactly the window, duplicate and decreasing times, NaN, infinite and
// huge coordinates, timestamps near the int64 limits, and radii of 1, 150
// and 400 m.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geo/grid_index.h"
#include "geo/point2.h"
#include "geo/projection.h"
#include "mechanisms/mixzone.h"
#include "model/dataset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv::mech {
namespace {

struct OracleEvent {
  geo::Point2 p;
  util::Timestamp time = 0;
  model::UserId user = model::kInvalidUser;
  std::uint32_t trace = 0;
};

/// The view's events in flat-id order (traces in view order, events in
/// trace order), on the tangent plane at the bounding-box centre.
std::vector<OracleEvent> Flatten(const model::DatasetView& input) {
  const geo::GeoBoundingBox bbox = input.BoundingBox();
  const geo::LocalProjection projection(
      bbox.IsEmpty() ? geo::LatLng{0.0, 0.0} : bbox.Center());
  std::vector<OracleEvent> flat;
  for (std::uint32_t t = 0; t < input.traces().size(); ++t) {
    const model::TraceView& trace = input.traces()[t];
    for (std::size_t i = 0; i < trace.size(); ++i) {
      flat.push_back({projection.Project(trace.position(i)), trace.time(i),
                      trace.user(), t});
    }
  }
  return flat;
}

double DistanceSq(geo::Point2 from, geo::Point2 to) {
  const double dx = to.x - from.x;
  const double dy = to.y - from.y;
  return dx * dx + dy * dy;
}

bool WithinWindow(util::Timestamp a, util::Timestamp b, util::Timestamp w) {
  const __int128 dt = static_cast<__int128>(a) - static_cast<__int128>(b);
  return (dt < 0 ? -dt : dt) <= w;
}

/// Grid coordinates at cell size `size`, as every grid in the library
/// keys a point.
std::pair<std::int64_t, std::int64_t> Cell(geo::Point2 p, double size) {
  return {geo::CellCoord(p.x / size), geo::CellCoord(p.y / size)};
}

/// `to - from` when it is -1, 0 or 1 in the wrapping int64 cell space.
std::optional<int> Step(std::int64_t from, std::int64_t to) {
  const std::uint64_t d =
      static_cast<std::uint64_t>(to) - static_cast<std::uint64_t>(from);
  if (d == 0) return 0;
  if (d == 1) return 1;
  if (d == ~std::uint64_t{0}) return -1;
  return std::nullopt;
}

/// Brute-force detection of `config` over `input`: the report Detect must
/// give.
MixZoneReport OracleDetect(const MixZoneConfig& config,
                           const model::DatasetView& input) {
  const std::vector<OracleEvent> flat = Flatten(input);
  const double r = config.zone_radius_m;
  const double r_sq = r * r;
  const util::Timestamp w = config.time_window_s;
  const std::size_t n = flat.size();
  MixZoneReport report;
  report.total_events = input.EventCount();

  // The (dx, dy) row-major rank of b's cell around a's, or -1 when the
  // pair does not meet.
  const auto meeting_rank = [&](const OracleEvent& a, const OracleEvent& b) {
    if (a.user == b.user || !WithinWindow(a.time, b.time, w) ||
        DistanceSq(a.p, b.p) > r_sq) {
      return -1;
    }
    const auto [ax, ay] = Cell(a.p, r);
    const auto [bx, by] = Cell(b.p, r);
    const std::optional<int> dx = Step(ax, bx);
    const std::optional<int> dy = Step(ay, by);
    if (!dx || !dy) return -1;
    return (*dx + 1) * 3 + (*dy + 1);
  };

  // Encounters and first-fit placement.
  std::vector<geo::Point2> centers;
  const auto rejected = [&](geo::Point2 mid) {
    const auto [mx, my] = Cell(mid, r);
    for (const geo::Point2 c : centers) {
      const auto [cx, cy] = Cell(c, r);
      if (Step(mx, cx) && Step(my, cy) && DistanceSq(mid, c) <= r_sq) {
        return true;
      }
    }
    return false;
  };
  for (std::size_t a = 0; a < n; ++a) {
    for (int rank = 0; rank < 9; ++rank) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (meeting_rank(flat[a], flat[b]) != rank) continue;
        ++report.encounters;
        const geo::Point2 mid = geo::Midpoint(flat[a].p, flat[b].p);
        if (!rejected(mid)) centers.push_back(mid);
      }
    }
  }

  // Passages: maximal runs of consecutive flat ids of one trace inside a
  // disc; occurrences: passages whose intervals dilated by w overlap, with
  // at least min_users distinct users.
  struct Passage {
    util::Timestamp enter, exit;
    model::UserId user;
  };
  struct Occurrence {
    std::size_t zone;
    std::vector<model::UserId> users;
    util::Timestamp end;
  };
  std::vector<Occurrence> occurrences;
  for (const geo::Point2 center : centers) {
    const auto [zx, zy] = Cell(center, r);
    std::vector<Passage> passages;
    bool previous_in = false;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [ex, ey] = Cell(flat[i].p, r);
      const bool in = Step(zx, ex) && Step(zy, ey) &&
                      DistanceSq(center, flat[i].p) <= r_sq;
      if (in && previous_in && flat[i - 1].trace == flat[i].trace) {
        passages.back().exit = flat[i].time;
      } else if (in) {
        passages.push_back({flat[i].time, flat[i].time, flat[i].user});
      }
      previous_in = in;
    }
    // Within a trace out of time order a passage can exit before it
    // enters, and then the grouping depends on the order of passages that
    // enter together: the same comparator over the same (flat-id ordered)
    // sequence that Detect sorts.
    std::sort(passages.begin(), passages.end(),
              [](const Passage& p, const Passage& q) {
                return p.enter < q.enter;
              });
    std::vector<Occurrence> zone_occurrences;
    std::size_t k = 0;
    while (k < passages.size()) {
      Occurrence occ{report.zones.size(), {}, passages[k].exit};
      __int128 group_end = passages[k].exit;
      std::size_t m = k;
      while (m < passages.size() &&
             (m == k || static_cast<__int128>(passages[m].enter) -
                                group_end <=
                            w)) {
        group_end = std::max<__int128>(group_end, passages[m].exit);
        occ.end = std::max(occ.end, passages[m].exit);
        occ.users.push_back(passages[m].user);
        ++m;
      }
      std::sort(occ.users.begin(), occ.users.end());
      occ.users.erase(std::unique(occ.users.begin(), occ.users.end()),
                      occ.users.end());
      if (occ.users.size() >= config.min_users) {
        zone_occurrences.push_back(std::move(occ));
      }
      k = m;
    }
    if (zone_occurrences.empty()) continue;
    MixZoneInfo info;
    info.center = center;
    info.radius_m = r;
    info.occurrences = zone_occurrences.size();
    for (const Occurrence& occ : zone_occurrences) {
      info.max_anonymity_set = std::max(info.max_anonymity_set,
                                        occ.users.size());
      occurrences.push_back(occ);
    }
    report.zones.push_back(info);
  }
  report.occurrences = occurrences.size();
  // The publication order; the same comparator over the same sequence
  // that Detect sorts.
  std::sort(occurrences.begin(), occurrences.end(),
            [](const Occurrence& p, const Occurrence& q) {
              return p.end < q.end;
            });
  for (const Occurrence& occ : occurrences) {
    report.occurrence_details.push_back({occ.zone, occ.users, false});
  }
  return report;
}

/// `prefix` followed by `value`.
template <typename T>
std::string Label(std::string prefix, T value) {
  prefix += std::to_string(value);
  return prefix;
}

void ExpectSameReport(const MixZoneReport& want, const MixZoneReport& got,
                      const std::string& context) {
  EXPECT_EQ(got.encounters, want.encounters) << context;
  EXPECT_EQ(got.total_events, want.total_events) << context;
  EXPECT_EQ(got.occurrences, want.occurrences) << context;
  ASSERT_EQ(got.zones.size(), want.zones.size()) << context;
  for (std::size_t z = 0; z < want.zones.size(); ++z) {
    const MixZoneInfo& a = want.zones[z];
    const MixZoneInfo& b = got.zones[z];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.center.x),
              std::bit_cast<std::uint64_t>(a.center.x))
        << context << " zone " << z;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.center.y),
              std::bit_cast<std::uint64_t>(a.center.y))
        << context << " zone " << z;
    EXPECT_EQ(b.radius_m, a.radius_m) << context << " zone " << z;
    EXPECT_EQ(b.occurrences, a.occurrences) << context << " zone " << z;
    EXPECT_EQ(b.max_anonymity_set, a.max_anonymity_set)
        << context << " zone " << z;
  }
  ASSERT_EQ(got.occurrence_details.size(), want.occurrence_details.size())
      << context;
  for (std::size_t o = 0; o < want.occurrence_details.size(); ++o) {
    EXPECT_EQ(got.occurrence_details[o].zone_index,
              want.occurrence_details[o].zone_index)
        << context << " occurrence " << o;
    EXPECT_EQ(got.occurrence_details[o].users,
              want.occurrence_details[o].users)
        << context << " occurrence " << o;
    EXPECT_FALSE(got.occurrence_details[o].swapped) << context;
  }
  EXPECT_EQ(got.swaps_applied, 0U) << context;
  EXPECT_EQ(got.suppressed_events, 0U) << context;
}

/// Detect and CountEncounters against the oracle at 1 and 4 workers.
void ExpectMatchesOracle(const MixZoneConfig& config,
                         const model::DatasetView& input,
                         const std::string& context) {
  const MixZoneReport want = OracleDetect(config, input);
  const MixZone mixzone(config);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const util::ScopedParallelism scope(threads);
    const std::string where = context + Label(" @threads=", threads);
    ExpectSameReport(want, mixzone.Detect(input), where);
    EXPECT_EQ(mixzone.CountEncounters(input), want.encounters) << where;
  }
}

// ---- Random small worlds ----------------------------------------------

/// How one random world is drawn. Positions are planar offsets (metres)
/// from a fixed origin, which two anchor fixes symmetric about it pin as
/// the projection centre; times are drawn from a lattice of `time_step`
/// seconds.
struct WorldShape {
  int users = 6;
  int fixes = 40;        // per trace
  double low = -600.0;   // planar box of the fixes, metres
  double high = 600.0;
  double anchor = 50'000.0;  // anchors at (-anchor, -anchor), (+, +)
  util::Timestamp time_base = 10'000;
  util::Timestamp time_step = 30;
  int time_slots = 60;
  bool shuffle_times = false;  // decreasing and duplicate times
  /// Every k-th fix is moved: a NaN latitude or longitude, a huge offset,
  /// or a spot in a crowd straddling `bound` (the x beyond which zone
  /// placement probes every midpoint), all of which leave the bounding
  /// box and so the projection centre where the anchors put them.
  int poison_every = 0;
  double bound = 0.0;
};

model::Dataset RandomWorld(const WorldShape& shape, std::uint64_t seed) {
  const geo::LocalProjection projection(geo::LatLng{45.75, 4.85});
  model::Dataset dataset;
  dataset.AddTraceForUser(
      "anchor", {{projection.Unproject({-shape.anchor, -shape.anchor}), 0},
                 {projection.Unproject({shape.anchor, shape.anchor}), 0}});
  util::Rng rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double span = shape.high - shape.low;
  int fix_count = 0;
  for (int u = 0; u < shape.users; ++u) {
    // Some users get two traces: co-located fixes of one user never meet.
    const int traces = u % 3 == 0 ? 2 : 1;
    for (int t = 0; t < traces; ++t) {
      std::vector<model::Event> events;
      for (int i = 0; i < shape.fixes; ++i) {
        double x = rng.Uniform(shape.low, shape.high);
        double y = rng.Uniform(shape.low, shape.high);
        bool nan_lat = false, nan_lng = false;
        if (shape.poison_every > 0 && ++fix_count % shape.poison_every == 0) {
          switch (rng.UniformInt(0, 3)) {
            case 0: nan_lat = true; break;
            case 1: nan_lng = true; break;
            case 2: x = shape.anchor * (x < 0.0 ? -0.5 : 0.5); break;
            default: x = shape.bound + x / span * 0.2 * span; break;
          }
        }
        geo::LatLng p = projection.Unproject({x, y});
        if (nan_lat) p.lat = nan;
        if (nan_lng) p.lng = nan;
        const int slot = shape.shuffle_times
                             ? static_cast<int>(rng.UniformInt(
                                   0, shape.time_slots - 1))
                             : i * shape.time_slots / shape.fixes;
        events.push_back({p, shape.time_base + shape.time_step * slot});
      }
      dataset.AddTraceForUser(Label("u", u), std::move(events));
    }
  }
  return dataset;
}

/// A world whose infinite coordinates make the bounding box, and with it
/// every projected position, NaN: each pair of other users' fixes in the
/// window meets and places a zone. Kept small, as that is quadratic.
model::Dataset InfiniteWorld(std::uint64_t seed) {
  model::Dataset dataset;
  util::Rng rng(seed);
  const double inf = std::numeric_limits<double>::infinity();
  for (int u = 0; u < 4; ++u) {
    std::vector<model::Event> events;
    for (int i = 0; i < 8; ++i) {
      geo::LatLng p{45.75 + rng.Uniform(-0.01, 0.01),
                    4.85 + rng.Uniform(-0.01, 0.01)};
      if ((u + i) % 5 == 0) p.lat = inf;
      if ((u * 3 + i) % 7 == 0) p.lng = -inf;
      events.push_back({p, 1000 + 100 * static_cast<util::Timestamp>(i)});
    }
    dataset.AddTraceForUser(Label("v", u), std::move(events));
  }
  return dataset;
}

MixZoneConfig ConfigOf(double radius, util::Timestamp window,
                       std::size_t min_users = 2) {
  MixZoneConfig config;
  config.zone_radius_m = radius;
  config.time_window_s = window;
  config.min_users = min_users;
  return config;
}

constexpr double kRadii[] = {1.0, 150.0, 400.0};

TEST(MixZoneOracle, RandomWorlds) {
  for (const double r : kRadii) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      WorldShape shape;
      shape.low = -3.0 * r;
      shape.high = 3.0 * r;
      const model::Dataset world = RandomWorld(shape, seed);
      ExpectMatchesOracle(ConfigOf(r, 600), world,
                          Label("random r=", r) +
                              Label(" seed=", seed));
    }
  }
}

TEST(MixZoneOracle, AllEventsInOneCell) {
  for (const double r : kRadii) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      WorldShape shape;
      shape.low = 0.02 * r;  // inside cell (0, 0) of the detector grid
      shape.high = 0.98 * r;
      shape.users = 5;
      shape.fixes = 30;
      const model::Dataset world = RandomWorld(shape, 10 + seed);
      ExpectMatchesOracle(ConfigOf(r, 600), world,
                          Label("one cell r=", r) +
                              Label(" seed=", seed));
    }
  }
}

TEST(MixZoneOracle, TimeGapsOfExactlyTheWindow) {
  // Times on a lattice of the window: most time-adjacent pairs are
  // exactly w apart, the rest 0 or 2w.
  for (const double r : kRadii) {
    WorldShape shape;
    shape.low = -2.0 * r;
    shape.high = 2.0 * r;
    shape.time_step = 600;
    shape.time_slots = 6;
    shape.shuffle_times = true;
    const model::Dataset world = RandomWorld(shape, 21);
    ExpectMatchesOracle(ConfigOf(r, 600, 3), world,
                        Label("window lattice r=", r));
  }
}

TEST(MixZoneOracle, DuplicateAndDecreasingTimes) {
  for (const double r : kRadii) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      WorldShape shape;
      shape.low = -4.0 * r;
      shape.high = 4.0 * r;
      shape.shuffle_times = true;
      shape.time_slots = 12;
      const model::Dataset world = RandomWorld(shape, 30 + seed);
      ExpectMatchesOracle(ConfigOf(r, 60), world,
                          Label("shuffled times r=", r) +
                              Label(" seed=", seed));
    }
  }
}

TEST(MixZoneOracle, NanInfiniteAndHugeCoordinates) {
  for (const double r : kRadii) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      WorldShape shape;
      shape.low = -2.0 * r;
      shape.high = 2.0 * r;
      shape.poison_every = 3;
      shape.bound = r * 0x1p30;
      shape.anchor = 4.0 * shape.bound;
      const model::Dataset world = RandomWorld(shape, 40 + seed);
      ExpectMatchesOracle(ConfigOf(r, 600), world,
                          Label("poisoned r=", r) +
                              Label(" seed=", seed));
    }
    const model::Dataset infinite = InfiniteWorld(7);
    ExpectMatchesOracle(ConfigOf(r, 600), infinite,
                        Label("infinite r=", r));
  }
}

TEST(MixZoneOracle, TimestampsNearTheInt64Limits) {
  constexpr util::Timestamp kMax = std::numeric_limits<util::Timestamp>::max();
  constexpr util::Timestamp kMin = std::numeric_limits<util::Timestamp>::min();
  for (const util::Timestamp base : {kMin, kMax - 600 * 40}) {
    WorldShape shape;
    shape.low = -300.0;
    shape.high = 300.0;
    shape.time_base = base;
    shape.time_step = 600;
    shape.time_slots = 40;
    shape.shuffle_times = true;
    const model::Dataset world = RandomWorld(shape, 50);
    ExpectMatchesOracle(ConfigOf(150.0, 600), world,
                        Label("extreme times base=", base));
  }
}

}  // namespace
}  // namespace mobipriv::mech
