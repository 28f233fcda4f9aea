// Descriptive statistics of traces and datasets, used by reports, benches
// and — crucially — by the constant-speed property tests: after stage 1 of
// the mechanism, SpeedProfile() of a trace must be (near-)constant and
// InterEventDistances()/InterEventIntervals() must be uniform.
#pragma once

#include <string>
#include <vector>

#include "model/views.h"
#include "util/statistics.h"

namespace mobipriv::model {

/// Distance in metres between each pair of consecutive events
/// (size = trace.size() - 1; empty for traces with < 2 events).
[[nodiscard]] std::vector<double> InterEventDistances(const TraceView& trace);

/// Seconds between each pair of consecutive events.
[[nodiscard]] std::vector<double> InterEventIntervals(const TraceView& trace);

/// Instantaneous speed (m/s) on each segment; segments with dt == 0
/// contribute 0 to avoid infinities (flagged separately by callers if
/// needed).
[[nodiscard]] std::vector<double> SpeedProfile(const TraceView& trace);

/// Coefficient of variation (stddev/mean) of the speed profile; 0 for
/// traces with < 2 segments or zero mean speed. The paper's stage-1
/// guarantee is exactly "this is ~0 after anonymization".
[[nodiscard]] double SpeedCoefficientOfVariation(const TraceView& trace);

/// Aggregate descriptive statistics of one dataset.
struct DatasetStats {
  std::size_t users = 0;
  std::size_t traces = 0;
  std::size_t events = 0;
  util::Summary trace_duration_s;
  util::Summary trace_length_m;
  util::Summary trace_events;
  util::Summary speed_mps;  ///< pooled over all segments of all traces

  [[nodiscard]] std::string ToString() const;
};

[[nodiscard]] DatasetStats ComputeDatasetStats(const DatasetView& dataset);

}  // namespace mobipriv::model
