#include "mechanisms/wait4me.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "geo/projection.h"

namespace mobipriv::mech {
namespace {

/// Synchronized Euclidean distance between two aligned planar tracks of the
/// same length (mean over time steps).
double SynchronizedDistance(const std::vector<geo::Point2>& a,
                            const std::vector<geo::Point2>& b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total += geo::Distance(a[i], b[i]);
  }
  return total / static_cast<double>(a.size());
}

}  // namespace

Wait4Me::Wait4Me(Wait4MeConfig config) : Configured(config) {
  assert(config_.k >= 2);
  assert(config_.delta_m > 0.0);
  assert(config_.grid_step_s > 0);
}

model::EventStore Wait4Me::ApplyToStore(const model::DatasetView& input,
                                        util::Rng& rng) const {
  (void)rng;  // deterministic given the input
  model::Dataset output;
  for (model::UserId id = 0; id < input.UserCount(); ++id) {
    output.InternUser(input.UserName(id));
  }
  const auto& traces = input.traces();
  if (traces.empty()) return model::EventStore::FromDataset(output);

  // ---- 1. Temporal alignment onto the median common span. ----
  // Use the span covered by most traces: [median of starts, median of ends].
  std::vector<double> starts;
  std::vector<double> ends;
  for (const model::TraceView& t : traces) {
    if (t.size() < 2) continue;
    starts.push_back(static_cast<double>(t.time(0)));
    ends.push_back(static_cast<double>(t.time(t.size() - 1)));
  }
  if (starts.empty()) return model::EventStore::FromDataset(output);
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  const auto span_start =
      static_cast<util::Timestamp>(starts[starts.size() / 2]);
  const auto span_end = static_cast<util::Timestamp>(ends[ends.size() / 2]);
  if (span_end <= span_start) return model::EventStore::FromDataset(output);

  const geo::LocalProjection projection(input.BoundingBox().Center());
  std::vector<std::size_t> alive;  // indices into traces
  std::vector<std::vector<geo::Point2>> aligned;
  std::vector<util::Timestamp> grid;
  for (util::Timestamp t = span_start; t <= span_end;
       t += config_.grid_step_s) {
    grid.push_back(t);
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const model::TraceView& trace = traces[i];
    if (trace.size() < 2) continue;
    // Overlap check.
    const auto overlap_start = std::max(span_start, trace.time(0));
    const auto overlap_end =
        std::min(span_end, trace.time(trace.size() - 1));
    const double overlap = static_cast<double>(
        std::max<util::Timestamp>(0, overlap_end - overlap_start));
    if (overlap < config_.min_overlap_fraction *
                      static_cast<double>(span_end - span_start)) {
      continue;  // suppressed: cannot align
    }
    std::vector<geo::Point2> track;
    track.reserve(grid.size());
    for (const auto t : grid) {
      track.push_back(projection.Project(model::InterpolateAt(trace, t)));
    }
    alive.push_back(i);
    aligned.push_back(std::move(track));
  }

  // ---- 2. Greedy k-clustering under synchronized distance. ----
  std::vector<bool> assigned(alive.size(), false);
  std::vector<std::vector<std::size_t>> clusters;  // indices into `alive`
  for (std::size_t pivot = 0; pivot < alive.size(); ++pivot) {
    if (assigned[pivot]) continue;
    // Distances from the pivot to every other unassigned track.
    std::vector<std::pair<double, std::size_t>> candidates;
    for (std::size_t j = 0; j < alive.size(); ++j) {
      if (j == pivot || assigned[j]) continue;
      candidates.emplace_back(
          SynchronizedDistance(aligned[pivot], aligned[j]), j);
    }
    if (candidates.size() + 1 < config_.k) continue;  // pivot unassignable
    std::nth_element(candidates.begin(),
                     candidates.begin() +
                         static_cast<std::ptrdiff_t>(config_.k - 2),
                     candidates.end());
    std::vector<std::size_t> cluster{pivot};
    for (std::size_t c = 0; c + 1 < config_.k; ++c) {
      cluster.push_back(candidates[c].second);
    }
    for (const std::size_t member : cluster) assigned[member] = true;
    clusters.push_back(std::move(cluster));
  }

  // ---- 3. Space translation into the delta/2 cylinder. ----
  for (const auto& cluster : clusters) {
    // Per-time-step centroid.
    std::vector<geo::Point2> centroid(grid.size());
    for (std::size_t step = 0; step < grid.size(); ++step) {
      geo::Point2 sum{};
      for (const std::size_t member : cluster) {
        sum = sum + aligned[member][step];
      }
      centroid[step] = sum / static_cast<double>(cluster.size());
    }
    // Slightly inside delta/2 so the guarantee survives re-measurement in
    // a different local projection (frames differ by ~1e-4 relative).
    const double radius = config_.delta_m / 2.0 * 0.999;
    for (const std::size_t member : cluster) {
      model::Trace out_trace;
      out_trace.set_user(traces[alive[member]].user());
      for (std::size_t step = 0; step < grid.size(); ++step) {
        geo::Point2 p = aligned[member][step];
        const geo::Point2 offset = p - centroid[step];
        const double dist = offset.Norm();
        if (dist > radius) {
          p = centroid[step] + offset * (radius / dist);
        }
        out_trace.Append(
            model::Event{projection.Unproject(p), grid[step]});
      }
      output.AddTrace(std::move(out_trace));
    }
  }
  return model::EventStore::FromDataset(output);
}

}  // namespace mobipriv::mech
