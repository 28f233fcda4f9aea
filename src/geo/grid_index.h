// Uniform-grid spatial index over planar points. The shared substrate of
// every neighbourhood kernel in the library: mix-zone encounter detection,
// POI cluster merging, re-identification nearest-profile search and the
// heatmap metric.
//
// Storage is flat: one entries array plus per-cell intrusive FIFO chains, so
// inserts never allocate per-cell vectors and queries touch one contiguous
// pool. Cells live in an open-addressed, power-of-two hash table (linear
// probing, backward-shift deletion) instead of std::unordered_map: a cell
// lookup is a multiply-mix plus a masked probe — no prime modulo, no bucket
// node chase — which matters because radius queries perform one lookup per
// covered cell and the mix-zone detector issues millions of them.
//
// The query path has caller-provided-buffer overloads that perform no
// allocation at all, and templated visitor queries (ForEachInRadius /
// AnyWithin) that inline the per-hit predicate into the cell scan — hot
// loops pay neither a std::function dispatch nor an output buffer write.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "geo/point2.h"
#include "util/simd.h"

namespace mobipriv::geo {

/// Result of a nearest-neighbour query.
struct NearestResult {
  std::uint64_t id = 0;
  Point2 point;
  double distance = 0.0;
};

/// 2-D grid-cell coordinate mix (large odd constants, xor-fold, finalizer)
/// shared by every open-addressed cell table in the library (GridIndex,
/// the mix-zone detector's CSR grid). Tables are power-of-two sized and
/// masked, so the mix must scramble low bits well.
[[nodiscard]] inline std::size_t HashCell2D(std::int64_t cx,
                                            std::int64_t cy) noexcept {
  const auto ux = static_cast<std::uint64_t>(cx);
  const auto uy = static_cast<std::uint64_t>(cy);
  std::uint64_t h = ux * 0x9E3779B97F4A7C15ULL;
  h ^= uy * 0xC2B2AE3D27D4EB4FULL + (h << 6) + (h >> 2);
  h ^= h >> 29;  // fold high entropy into the masked low bits
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

/// Grid coordinate of `scaled`, a coordinate already divided by the cell
/// size: floor(scaled) when that fits an int64, else INT64_MIN. NaN, ±inf
/// and out-of-range inputs all share that one cell (the value x86's
/// truncating convert gives them), so every point has a cell and no
/// conversion is undefined.
[[nodiscard]] inline std::int64_t CellCoord(double scaled) noexcept {
  const double f = std::floor(scaled);
  return f >= -0x1p63 && f < 0x1p63 ? static_cast<std::int64_t>(f)
                                    : std::numeric_limits<std::int64_t>::min();
}

/// `coord + step`, wrapping around the int64 range, so the neighbours of
/// the extreme cells are defined instead of overflowing.
[[nodiscard]] inline std::int64_t CellStep(std::int64_t coord,
                                           std::int64_t step) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(coord) +
                                   static_cast<std::uint64_t>(step));
}

/// Maps points (with caller-supplied payload ids) to grid cells and answers
/// radius / nearest queries by scanning cell neighbourhoods. Results are
/// always exact — candidates are verified with a true distance test — the
/// cell size only affects speed. Within one cell, points are returned in
/// insertion order.
class GridIndex {
 public:
  explicit GridIndex(double cell_size);

  /// Inserts a point with an opaque id (e.g. event index).
  void Insert(Point2 p, std::uint64_t id);

  /// Removes one previously inserted (point, id) entry; the point must match
  /// the inserted coordinates exactly. Returns false when no entry matches.
  bool Remove(Point2 p, std::uint64_t id);

  /// Relocates one entry from `from` to `to` (exact-match on `from` + id).
  /// Equivalent to Remove+Insert but reuses the entry slot and, when both
  /// positions fall in the same cell, touches nothing but the coordinates.
  /// Note: within-cell FIFO order is preserved only in that same-cell case;
  /// a cross-cell move re-appends at the tail of the destination cell.
  bool Move(Point2 from, Point2 to, std::uint64_t id);

  /// Pre-allocates storage for `n` entries.
  void Reserve(std::size_t n);

  /// Visits every inserted (id, point) within `radius` of `center`
  /// (inclusive), in cell-scan order (x-major over the covered cells,
  /// insertion order within a cell — the order QueryRadius reports).
  /// `visit` is invoked as visit(id, point); if it returns bool, a false
  /// return stops the scan early. The visitor is inlined into the cell
  /// walk — this is the allocation- and indirection-free form every hot
  /// kernel should prefer.
  template <typename Visitor>
  void ForEachInRadius(Point2 center, double radius, Visitor&& visit) const {
    const double r_sq = radius * radius;
    const util::F64x4 vcx = util::F64x4::Set1(center.x);
    const util::F64x4 vcy = util::F64x4::Set1(center.y);
    const util::F64x4 vr2 = util::F64x4::Set1(r_sq);
    // Whether the visitor can stop the scan (returns bool) — resolved at
    // compile time, shared by the vector and tail emission below.
    using VisitResult = decltype(visit(std::uint64_t{}, Point2{}));
    constexpr bool kStoppable = std::is_same_v<VisitResult, bool>;
    ForEachCellInBox(center, radius, [&](std::int32_t head) {
      // The chain walk IS the gather: batches of entries go into stack
      // lanes, the distance test runs 4-wide, and hits are emitted from
      // the mask in lane order — the exact chain (insertion) order and
      // the exact scalar predicate dx*dx + dy*dy <= r*r, so results and
      // visit order are bit-identical to the scalar walk, early exit
      // included.
      constexpr int kBuf = 32;
      double xs[kBuf], ys[kBuf];
      std::uint64_t ids[kBuf];
      std::int32_t cur = head;
      while (cur != -1) {
        int n = 0;
        while (cur != -1 && n < kBuf) {
          const Entry& e = entries_[static_cast<std::size_t>(cur)];
          xs[n] = e.point.x;
          ys[n] = e.point.y;
          ids[n] = e.id;
          ++n;
          cur = e.next;
        }
        int i = 0;
        for (; i + util::kSimdWidth <= n; i += util::kSimdWidth) {
          const util::F64x4 dx = util::F64x4::Load(xs + i) - vcx;
          const util::F64x4 dy = util::F64x4::Load(ys + i) - vcy;
          int m = util::MoveMask(util::CmpLe(dx * dx + dy * dy, vr2));
          while (m != 0) {
            const int at =
                i + std::countr_zero(static_cast<unsigned>(m));
            m &= m - 1;
            if constexpr (kStoppable) {
              if (!visit(ids[at], Point2{xs[at], ys[at]})) return false;
            } else {
              visit(ids[at], Point2{xs[at], ys[at]});
            }
          }
        }
        for (; i < n; ++i) {
          const double ddx = xs[i] - center.x;
          const double ddy = ys[i] - center.y;
          if (ddx * ddx + ddy * ddy <= r_sq) {
            if constexpr (kStoppable) {
              if (!visit(ids[i], Point2{xs[i], ys[i]})) return false;
            } else {
              visit(ids[i], Point2{xs[i], ys[i]});
            }
          }
        }
      }
      return true;
    });
  }

  /// True when any inserted point lies within `radius` of `center`
  /// (inclusive). Early-exits on the first hit — the cheap form of the
  /// "is anything nearby?" probe (greedy first-fit clustering), which a
  /// QueryRadius + empty() test would answer only after collecting every
  /// neighbour.
  [[nodiscard]] bool AnyWithin(Point2 center, double radius) const {
    bool found = false;
    ForEachInRadius(center, radius, [&](std::uint64_t, Point2) {
      found = true;
      return false;  // stop at the first hit
    });
    return found;
  }

  /// Ids of all inserted points within `radius` of `center` (inclusive).
  /// The overload taking `out` clears and fills it without allocating
  /// (beyond the buffer's own growth on first uses).
  [[nodiscard]] std::vector<std::uint64_t> QueryRadius(Point2 center,
                                                       double radius) const;
  void QueryRadius(Point2 center, double radius,
                   std::vector<std::uint64_t>& out) const;

  /// All (id, point) pairs sharing cells intersecting the axis-aligned
  /// square of half-width `radius` around `center` (superset of the true
  /// radius query; cheap pre-filter for custom predicates).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, Point2>> QueryBoxCandidates(
      Point2 center, double radius) const;
  void QueryBoxCandidates(Point2 center, double radius,
                          std::vector<std::pair<std::uint64_t, Point2>>& out)
      const;

  /// Exact nearest entry to `center` (expanding-ring search), or nullopt
  /// when the index is empty. Ties on distance break towards the smaller id
  /// so the result never depends on insertion or cell iteration order.
  [[nodiscard]] std::optional<NearestResult> QueryNearest(Point2 center) const;

  [[nodiscard]] std::size_t Size() const noexcept { return count_; }
  [[nodiscard]] double CellSize() const noexcept { return cell_size_; }
  void Clear();

 private:
  struct CellKey {
    std::int64_t cx;
    std::int64_t cy;
    friend bool operator==(CellKey a, CellKey b) noexcept {
      return a.cx == b.cx && a.cy == b.cy;
    }
  };
  /// Intrusive FIFO chain into entries_ (FIFO keeps query output in
  /// insertion order, matching the historical per-cell vector behaviour).
  struct Bucket {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };
  /// One open-addressing slot: a cell key plus its chain. `used` marks
  /// occupancy (deletion backward-shifts, so there are no tombstones).
  struct Cell {
    CellKey key;
    Bucket bucket;
    bool used = false;
  };
  struct Entry {
    Point2 point;
    std::uint64_t id;
    std::int32_t next;  ///< next entry in the cell chain, -1 = end
  };

  [[nodiscard]] static std::size_t HashKey(CellKey k) noexcept {
    return HashCell2D(k.cx, k.cy);
  }

  [[nodiscard]] CellKey KeyFor(Point2 p) const noexcept {
    return {CellCoord(p.x / cell_size_), CellCoord(p.y / cell_size_)};
  }

  /// Linear probe for `key`. Returns the occupied slot index, or npos.
  [[nodiscard]] std::size_t FindCell(CellKey key) const noexcept {
    if (cells_.empty()) return kNpos;
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = HashKey(key) & mask;
    while (cells_[i].used) {
      if (cells_[i].key == key) return i;
      i = (i + 1) & mask;
    }
    return kNpos;
  }

  /// Chain head of the cell holding `key`, or -1 when the cell is empty —
  /// the inlineable primitive every query builds on.
  [[nodiscard]] std::int32_t CellHead(CellKey key) const noexcept {
    const std::size_t slot = FindCell(key);
    return slot == kNpos ? -1 : cells_[slot].bucket.head;
  }

  /// Invokes visit(head) for every non-empty cell intersecting the
  /// axis-aligned square of half-width `radius` around `center`, x-major.
  /// `visit` returns false to stop early.
  template <typename CellVisitor>
  void ForEachCellInBox(Point2 center, double radius,
                        CellVisitor&& visit) const {
    const auto span = static_cast<std::int64_t>(
        std::ceil(radius / cell_size_));
    const CellKey center_key = KeyFor(center);
    for (std::int64_t dx = -span; dx <= span; ++dx) {
      for (std::int64_t dy = -span; dy <= span; ++dy) {
        const std::int32_t head =
            CellHead(CellKey{CellStep(center_key.cx, dx),
                             CellStep(center_key.cy, dy)});
        if (head == -1) continue;
        if (!visit(head)) return;
      }
    }
  }

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Occupied slot for `key`, inserting an empty cell (growing the table
  /// as needed) when absent.
  std::size_t FindOrInsertCell(CellKey key);
  /// Doubles the table (or sets the initial capacity) and re-seats every
  /// occupied cell.
  void Rehash(std::size_t min_capacity);
  /// Backward-shift removal of the occupied slot `slot`.
  void EraseCellSlot(std::size_t slot);

  std::int32_t AcquireSlot(Point2 p, std::uint64_t id);
  void AppendToBucket(Bucket& bucket, std::int32_t slot);
  /// Unlinks `slot` from its bucket; erases the cell when it empties.
  void UnlinkFromCell(CellKey key, std::int32_t slot);

  double cell_size_;
  std::size_t count_ = 0;
  std::vector<Cell> cells_;        ///< open-addressed, power-of-two size
  std::size_t cell_count_ = 0;     ///< occupied slots in cells_
  std::vector<Entry> entries_;
  std::int32_t free_head_ = -1;  ///< recycled entry slots (chained via next)
  // Occupied-cell extent, used to terminate the nearest-neighbour ring
  // search. Grows on insert; never shrinks (stays a valid upper bound).
  std::int64_t min_cx_ = 0, max_cx_ = 0, min_cy_ = 0, max_cy_ = 0;
};

}  // namespace mobipriv::geo
