// (k, delta)-anonymity measurement (the guarantee notion of Abul, Bonchi,
// Nanni's Wait For Me [3], measured rather than enforced).
//
// A dataset satisfies (k, delta)-anonymity when every trajectory moves,
// at every instant of its lifetime, within distance delta of at least k-1
// other trajectories. Wait4Me *constructs* such datasets; this module
// *measures* the anonymity any publication actually provides: for each
// trace, the largest k such that k-1 co-moving companions stay within
// delta for its entire (aligned) lifetime — and aggregate statistics.
// This turns the baseline's guarantee into a metric every mechanism can be
// scored under (e.g. how much herd anonymity does the paper's pipeline
// give for free at transit hubs?).
#pragma once

#include <string>
#include <vector>

#include "model/dataset.h"
#include "model/views.h"
#include "util/statistics.h"

namespace mobipriv::metrics {

struct KDeltaConfig {
  double delta_m = 500.0;
  util::Timestamp grid_step_s = 60;  ///< temporal alignment step
  /// Fraction of a trace's aligned steps a companion may miss (being
  /// momentarily farther than delta) while still counting. 0 = strict
  /// (k,delta)-anonymity.
  double tolerance = 0.0;
};

/// Per-trace anonymity: this trace plus (k-1) companions co-move within
/// delta. k >= 1 always (the trace accompanies itself).
struct TraceAnonymity {
  std::size_t trace_index = 0;
  model::UserId user = model::kInvalidUser;
  std::size_t k = 1;
};

struct KDeltaReport {
  std::vector<TraceAnonymity> per_trace;
  util::Summary k_distribution;
  /// Fraction of traces with k >= the given floor (the headline number the
  /// Wait4Me paper reports).
  [[nodiscard]] double FractionWithK(std::size_t k_floor) const;
  [[nodiscard]] std::string ToString() const;
};

/// Measures the (k, delta) anonymity of every trace in the dataset.
/// O(T^2 * steps) pairwise alignment, fanned out on the thread pool (both
/// the per-trace grid alignment and the pairwise companion counting are
/// embarrassingly parallel); the grid step controls resolution.
[[nodiscard]] KDeltaReport MeasureKDeltaAnonymity(
    const model::DatasetView& dataset, const KDeltaConfig& config = {});

}  // namespace mobipriv::metrics
