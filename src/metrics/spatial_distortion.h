// Spatial distortion: how far the published trajectory strays from the
// original, the paper's headline utility metric ("our challenge is to
// minimize the distortion of the geographical information").
//
// Two views are computed:
//   * synchronized distortion — at each original fix time t, distance from
//     the original position to the published trace interpolated at t. This
//     penalizes time distortion that moves a user along her own path (our
//     mechanism pays a small, bounded cost here);
//   * path distortion — distance from each original fix to the published
//     *path* regardless of time. Near zero for our mechanism (geometry is
//     preserved), large for noise mechanisms. The gap between the two views
//     is exactly the paper's "distort time, not space" trade-off.
#pragma once

#include <string>

#include "model/dataset.h"
#include "model/views.h"
#include "util/statistics.h"

namespace mobipriv::metrics {

struct DistortionSummary {
  util::Summary synchronized_m;  ///< time-synchronized point error
  util::Summary path_m;          ///< geometry-only error (to nearest path point)
  std::size_t compared_traces = 0;
  std::size_t skipped_traces = 0;  ///< original traces with no published match

  [[nodiscard]] std::string ToString() const;
};

/// Matches each original trace to the published trace of the same user
/// with the longest time-span overlap (sessions of one user can share small
/// boundary windows, so "first overlapping" is not unique); the lowest
/// published index wins a tie, and a trace with no overlapping candidate
/// is skipped. Sampling: every original fix. Mechanisms that re-identify
/// users (mix-zones) should be measured before swapping, or per matched
/// segment — see bench E3 notes.
///
/// Cost: one (user, index)-sorted table of the published traces, so
/// matching scans only the trace's own user's sessions; per matched trace
/// O(n + m) for the synchronized view (a forward interpolation cursor) and
/// a bounding-box-pruned path scan, exact to the bit (docs/PERFORMANCE.md,
/// "Pruned spatial distortion"). Original traces fan out on the thread
/// pool and write their deviations at prefix offsets of two buffers, so
/// the summary is byte-identical at any worker count.
[[nodiscard]] DistortionSummary MeasureDistortion(
    const model::DatasetView& original, const model::DatasetView& published);

/// Synchronized distortion between two specific traces (original fix times).
/// Returns per-fix distances in metres; empty if either trace is empty.
[[nodiscard]] std::vector<double> SynchronizedDeviation(
    const model::TraceView& original, const model::TraceView& published);

/// Geometry-only deviation: distance from each original fix to the
/// published polyline (geo::DistanceToPolyline's value, found by a scan
/// that skips segment boxes too far away to lower the minimum).
[[nodiscard]] std::vector<double> PathDeviation(
    const model::TraceView& original, const model::TraceView& published);

}  // namespace mobipriv::metrics
