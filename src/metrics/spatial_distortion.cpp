#include "metrics/spatial_distortion.h"

#include <algorithm>
#include <sstream>

#include "geo/polyline.h"
#include "geo/projection.h"
#include "model/filters.h"
#include "util/thread_pool.h"

namespace mobipriv::metrics {

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
  out.reserve(original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const geo::LatLng at = model::InterpolateAt(published, original.time(i));
    out.push_back(geo::HaversineDistance(original.position(i), at));
  }
  return out;
}

std::vector<double> PathDeviation(const model::TraceView& original,
                                  const model::TraceView& published) {
  std::vector<double> out;
  if (original.empty() || published.empty()) return out;
  const geo::LocalProjection projection(original.BoundingBox().Center());
  std::vector<geo::Point2> path;
  path.reserve(published.size());
  for (std::size_t i = 0; i < published.size(); ++i) {
    path.push_back(projection.Project(published.position(i)));
  }
  out.reserve(original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    out.push_back(
        geo::DistanceToPolyline(path, projection.Project(original.position(i))));
  }
  return out;
}

std::ptrdiff_t FindBestMatchIndex(const model::TraceView& original,
                                  const model::DatasetView& published) {
  if (original.empty()) return -1;
  std::ptrdiff_t best = -1;
  util::Timestamp best_overlap = -1;
  const util::Timestamp original_front = original.time(0);
  const util::Timestamp original_back = original.time(original.size() - 1);
  for (std::size_t c = 0; c < published.TraceCount(); ++c) {
    const model::TraceView& candidate = published.trace(c);
    if (candidate.user() != original.user() || candidate.empty()) continue;
    const util::Timestamp overlap =
        std::min(candidate.time(candidate.size() - 1), original_back) -
        std::max(candidate.time(0), original_front);
    if (overlap >= 0 && overlap > best_overlap) {
      best_overlap = overlap;
      best = static_cast<std::ptrdiff_t>(c);
    }
  }
  return best;
}

DistortionSummary MeasureDistortion(const model::DatasetView& original,
                                    const model::DatasetView& published) {
  DistortionSummary summary;
  const auto& traces = original.traces();
  // Every original trace matches and measures independently; per-trace
  // deviation vectors concatenate in trace order, so the summary is
  // byte-identical to the serial trace-by-trace scan.
  struct PerTrace {
    std::vector<double> sync;
    std::vector<double> path;
    bool matched = false;
  };
  std::vector<PerTrace> per_trace(traces.size());
  util::ParallelForEach(traces.size(), [&](std::size_t t) {
    const std::ptrdiff_t match = FindBestMatchIndex(traces[t], published);
    if (match < 0) return;
    PerTrace& out = per_trace[t];
    out.matched = true;
    const model::TraceView& matched =
        published.trace(static_cast<std::size_t>(match));
    out.sync = SynchronizedDeviation(traces[t], matched);
    out.path = PathDeviation(traces[t], matched);
  });

  std::vector<double> sync_all;
  std::vector<double> path_all;
  for (PerTrace& result : per_trace) {
    if (!result.matched) {
      ++summary.skipped_traces;
      continue;
    }
    ++summary.compared_traces;
    sync_all.insert(sync_all.end(), result.sync.begin(), result.sync.end());
    path_all.insert(path_all.end(), result.path.begin(), result.path.end());
  }
  summary.synchronized_m = util::Summary::Of(sync_all);
  summary.path_m = util::Summary::Of(path_all);
  return summary;
}

}  // namespace mobipriv::metrics
