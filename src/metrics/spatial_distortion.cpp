#include "metrics/spatial_distortion.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>

#include "geo/polyline.h"
#include "geo/projection.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mobipriv::metrics {
namespace {

// PathDeviation keeps one bounding box per this many consecutive segments.
constexpr std::size_t kSegmentsPerBlock = 8;

// A box is skipped only when its squared distance to the fix, with every
// axis gap first shrunk by kSlack times the coordinate scale, exceeds
// kBoundMargin times best². The slack covers the rounding of the gaps and
// of DistanceToSegment's closest point (a few ulps of the scale), the
// margin the rounding of the squares and of the hypot, so a skipped
// segment's computed distance is never below best. Below kMinPrunedSquare
// (where squares lose precision to underflow) nothing is skipped.
constexpr double kSlack = 0x1p-40;
constexpr double kBoundMargin = 1.0 + 0x1p-30;
constexpr double kMinPrunedSquare = 0x1p-600;
constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct Box {
  double min_x, min_y, max_x, max_y;
};

// The box of a and b, or an unbounded box (never skipped) when either
// endpoint has a non-finite coordinate.
Box BoxOf(geo::Point2 a, geo::Point2 b) {
  if (!std::isfinite(a.x) || !std::isfinite(a.y) || !std::isfinite(b.x) ||
      !std::isfinite(b.y)) {
    return {-kInfinity, -kInfinity, kInfinity, kInfinity};
  }
  return {std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
          std::max(a.y, b.y)};
}

Box Union(const Box& a, const Box& b) {
  return {std::min(a.min_x, b.min_x), std::min(a.min_y, b.min_y),
          std::max(a.max_x, b.max_x), std::max(a.max_y, b.max_y)};
}

// Squared distance from p to the box with each axis gap shrunk by `slack`.
// A NaN gap (non-finite p) counts as 0, so such a fix skips nothing.
double SlackedSquaredDistance(const Box& box, geo::Point2 p, double slack) {
  const double gx =
      std::max({0.0, box.min_x - p.x, p.x - box.max_x}) - slack;
  const double gy =
      std::max({0.0, box.min_y - p.y, p.y - box.max_y}) - slack;
  const double cx = gx > 0.0 ? gx : 0.0;
  const double cy = gy > 0.0 ? gy : 0.0;
  return cx * cx + cy * cy;
}

// Boxes whose slackened squared distance exceeds this cannot hold a
// segment nearer than `best`; +inf (skip nothing) while best is infinite
// or too small to square safely.
double SkipThreshold(double best) {
  const double threshold = best * best * kBoundMargin;
  return threshold >= kMinPrunedSquare ? threshold : kInfinity;
}

void SynchronizedDeviationInto(const model::TraceView& original,
                               const model::TraceView& published,
                               double* out) {
  // InterpolateAt's (before, after) pair for every fix. On a time-ordered
  // published trace its binary search finds the first fix with time >= t,
  // which a forward cursor finds too while the query times ascend; when
  // they go backwards (or the trace is unordered) the search runs as is.
  const std::size_t m = published.size();
  const bool ordered = published.IsTimeOrdered();
  std::size_t cursor = 0;
  util::Timestamp cursor_time = std::numeric_limits<util::Timestamp>::min();
  for (std::size_t i = 0; i < original.size(); ++i) {
    const util::Timestamp t = original.time(i);
    geo::LatLng at;
    if (!ordered || t <= published.time(0) || t >= published.time(m - 1)) {
      at = model::InterpolateAt(published, t);
    } else {
      if (t < cursor_time) {
        cursor = model::FirstAtOrAfter(published, t);
      } else {
        while (published.time(cursor) < t) ++cursor;
      }
      cursor_time = t;
      at = model::InterpolateBetween(published, cursor, t);
    }
    out[i] = geo::HaversineDistance(original.position(i), at);
  }
}

void PathDeviationInto(const model::TraceView& original,
                       const model::TraceView& published, double* out) {
  const geo::LocalProjection projection(original.BoundingBox().Center());
  std::vector<geo::Point2> path;
  path.reserve(published.size());
  double scale = 0.0;  // largest finite |coordinate| on the path
  for (std::size_t i = 0; i < published.size(); ++i) {
    path.push_back(projection.Project(published.position(i)));
    for (const double c : {path.back().x, path.back().y}) {
      if (std::isfinite(c)) scale = std::max(scale, std::abs(c));
    }
  }
  if (path.size() == 1) {
    for (std::size_t i = 0; i < original.size(); ++i) {
      out[i] = geo::DistanceToPolyline(
          path, projection.Project(original.position(i)));
    }
    return;
  }
  // DistanceToPolyline is the minimum over every segment of the non-NaN
  // DistanceToSegment values (+inf when all are NaN). A distance is never
  // -0.0, so equal minima have equal bits and the minimum over any subset
  // holding every segment that could lower it is the same double.
  const std::size_t segments = path.size() - 1;
  const std::size_t blocks =
      (segments + kSegmentsPerBlock - 1) / kSegmentsPerBlock;
  // Segment boxes as columns padded to whole blocks (the padding lanes lie
  // past `segments` and are never measured), plus one box per block.
  const std::size_t padded = blocks * kSegmentsPerBlock;
  std::vector<double> min_x(padded), min_y(padded), max_x(padded),
      max_y(padded);
  std::vector<Box> block_box(blocks);
  for (std::size_t s = 0; s < segments; ++s) {
    const Box box = BoxOf(path[s], path[s + 1]);
    min_x[s] = box.min_x;
    min_y[s] = box.min_y;
    max_x[s] = box.max_x;
    max_y[s] = box.max_y;
    Box& block = block_box[s / kSegmentsPerBlock];
    block = s % kSegmentsPerBlock == 0 ? box : Union(block, box);
  }
  using util::F64x4;
  const F64x4 zero = F64x4::Set1(0.0);
  std::size_t hint = 0;  // the previous fix's nearest segment
  for (std::size_t i = 0; i < original.size(); ++i) {
    const geo::Point2 p = projection.Project(original.position(i));
    const double slack =
        kSlack * (scale + std::max(std::abs(p.x), std::abs(p.y)));
    double best = kInfinity;
    const double seed = geo::DistanceToSegment(p, path[hint], path[hint + 1]);
    if (seed < best) best = seed;
    double threshold = SkipThreshold(best);
    const F64x4 px = F64x4::Set1(p.x);
    const F64x4 py = F64x4::Set1(p.y);
    const F64x4 slack4 = F64x4::Set1(slack);
    for (std::size_t b = 0; b < blocks && best != 0.0; ++b) {
      if (SlackedSquaredDistance(block_box[b], p, slack) > threshold) {
        continue;
      }
      // SlackedSquaredDistance four segments at a time. A NaN lane never
      // compares above the threshold, so it is measured.
      for (std::size_t first = b * kSegmentsPerBlock;
           first < (b + 1) * kSegmentsPerBlock && first < segments;
           first += util::kSimdWidth) {
        const F64x4 gx =
            Max(Max(zero, F64x4::Load(&min_x[first]) - px),
                px - F64x4::Load(&max_x[first])) - slack4;
        const F64x4 gy =
            Max(Max(zero, F64x4::Load(&min_y[first]) - py),
                py - F64x4::Load(&max_y[first])) - slack4;
        const F64x4 cx = Max(gx, zero);
        const F64x4 cy = Max(gy, zero);
        const F64x4 bound = cx * cx + cy * cy;
        double bounds[util::kSimdWidth];
        bound.Store(bounds);
        for (int lane = 0; lane < util::kSimdWidth; ++lane) {
          const std::size_t s = first + static_cast<std::size_t>(lane);
          if (s >= segments || bounds[lane] > threshold) continue;
          const double d = geo::DistanceToSegment(p, path[s], path[s + 1]);
          if (d < best) {
            best = d;
            hint = s;
            threshold = SkipThreshold(best);
          }
        }
      }
    }
    out[i] = best;
  }
}

// Non-empty published traces sorted by (user, index), with their first and
// last times, so each original trace scans only its own user's sessions.
struct Candidate {
  model::UserId user;
  std::size_t index;
  util::Timestamp front;
  util::Timestamp back;
};

std::vector<Candidate> CandidateTable(const model::DatasetView& published) {
  std::vector<Candidate> table;
  for (std::size_t c = 0; c < published.TraceCount(); ++c) {
    const model::TraceView& trace = published.trace(c);
    if (trace.empty()) continue;
    table.push_back(
        {trace.user(), c, trace.time(0), trace.time(trace.size() - 1)});
  }
  std::stable_sort(table.begin(), table.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.user < b.user;
                   });
  return table;
}

// The candidate of the same user with the longest time-span overlap with
// `original`, the lowest index on a tie; -1 when none overlaps.
std::ptrdiff_t BestMatch(const model::TraceView& original,
                         std::span<const Candidate> table) {
  if (original.empty()) return -1;
  const util::Timestamp original_front = original.time(0);
  const util::Timestamp original_back = original.time(original.size() - 1);
  const auto first = std::partition_point(
      table.begin(), table.end(),
      [&](const Candidate& c) { return c.user < original.user(); });
  std::ptrdiff_t best = -1;
  std::uint64_t best_overlap = 0;
  for (auto it = first; it != table.end() && it->user == original.user();
       ++it) {
    const util::Timestamp lo = std::max(it->front, original_front);
    const util::Timestamp hi = std::min(it->back, original_back);
    if (hi < lo) continue;
    const std::uint64_t overlap = util::ElapsedSeconds(lo, hi);
    if (best < 0 || overlap > best_overlap) {
      best_overlap = overlap;
      best = static_cast<std::ptrdiff_t>(it->index);
    }
  }
  return best;
}

}  // namespace

std::string DistortionSummary::ToString() const {
  std::ostringstream os;
  os << "sync[m]: " << synchronized_m.ToString()
     << "\npath[m]: " << path_m.ToString() << "\ntraces: compared="
     << compared_traces << " skipped=" << skipped_traces;
  return os.str();
}

std::vector<double> SynchronizedDeviation(const model::TraceView& original,
                                          const model::TraceView& published) {
  std::vector<double> out;
  if (original.empty() || published.empty()) return out;
  out.resize(original.size());
  SynchronizedDeviationInto(original, published, out.data());
  return out;
}

std::vector<double> PathDeviation(const model::TraceView& original,
                                  const model::TraceView& published) {
  std::vector<double> out;
  if (original.empty() || published.empty()) return out;
  out.resize(original.size());
  PathDeviationInto(original, published, out.data());
  return out;
}

DistortionSummary MeasureDistortion(const model::DatasetView& original,
                                    const model::DatasetView& published) {
  DistortionSummary summary;
  const auto& traces = original.traces();
  const std::vector<Candidate> table = CandidateTable(published);
  // Each matched trace writes its deviations at its prefix offset, so the
  // buffers hold them in trace order at any worker count.
  std::vector<std::ptrdiff_t> match(traces.size());
  std::vector<std::size_t> offset(traces.size());
  std::size_t total = 0;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    match[t] = BestMatch(traces[t], table);
    offset[t] = total;
    if (match[t] < 0) {
      ++summary.skipped_traces;
    } else {
      ++summary.compared_traces;
      total += traces[t].size();
    }
  }
  std::vector<double> sync(total);
  std::vector<double> path(total);
  util::ParallelForEach(traces.size(), [&](std::size_t t) {
    if (match[t] < 0) return;
    const model::TraceView& matched =
        published.trace(static_cast<std::size_t>(match[t]));
    SynchronizedDeviationInto(traces[t], matched, sync.data() + offset[t]);
    PathDeviationInto(traces[t], matched, path.data() + offset[t]);
  });
  summary.synchronized_m = util::Summary::OfInPlace(sync);
  summary.path_m = util::Summary::OfInPlace(path);
  return summary;
}

}  // namespace mobipriv::metrics
