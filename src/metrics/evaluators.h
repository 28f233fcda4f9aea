// Utility-metric implementations of the scenario engine's Evaluator
// interface (core/evaluator.h). Each wraps an existing view-based metric
// kernel; all are registered with core::CreateEvaluator under the base
// name in their Name().
#pragma once

#include "core/evaluator.h"
#include "metrics/coverage.h"
#include "metrics/heatmap.h"
#include "metrics/kdelta.h"
#include "metrics/range_queries.h"
#include "util/params.h"

namespace mobipriv::metrics {

inline constexpr util::ParamTable kCoverageParams{
    "coverage", util::Param{"cell", &CoverageConfig::cell_size_m, "m",
                            util::kPositive}
                    .Always()};
inline constexpr util::ParamTable kHeatmapParams{
    "heatmap", util::Param{"cell", &HeatmapConfig::cell_size_m, "m",
                           util::kPositive}
                   .Always()};
inline constexpr util::ParamTable kRangeQueryParams{
    "range_queries", util::Param{"n", &RangeQueryConfig::query_count, "",
                                 util::AtLeast(1)}
                         .Always()};
inline constexpr util::ParamTable kKDeltaParams{
    "kdelta",
    util::Param{"delta", &KDeltaConfig::delta_m, "m", util::kNonNegative}
        .Always(),
    util::Param{"grid", &KDeltaConfig::grid_step_s, "s", util::kPositive},
    util::Param{"tolerance", &KDeltaConfig::tolerance, "",
                util::kUnitInterval}
        .Digits(3)};

/// "spatial_distortion": path/synchronized error of published vs original
/// traces (metres) — the paper's headline utility metric.
class SpatialDistortionEvaluator final : public core::Evaluator {
 public:
  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] std::vector<core::MetricValue> Evaluate(
      const core::EvalInput& input) const override;
};

/// "coverage[cell=...m]": Jaccard similarity of visited grid cells.
class CoverageEvaluator final
    : public util::Configured<core::Evaluator, kCoverageParams> {
 public:
  using Configured::Configured;
  [[nodiscard]] std::vector<core::MetricValue> Evaluate(
      const core::EvalInput& input) const override;
};

/// "heatmap[cell=...m]": cosine similarity of event-density rasters.
class HeatmapEvaluator final
    : public util::Configured<core::Evaluator, kHeatmapParams> {
 public:
  using Configured::Configured;
  [[nodiscard]] std::vector<core::MetricValue> Evaluate(
      const core::EvalInput& input) const override;
};

/// "range_queries[n=...]": relative-error distribution of a random
/// spatio-temporal counting workload sampled (deterministically from the
/// grid cell's seed) on the original dataset. Prepared: the workload and
/// its original counts.
class RangeQueryEvaluator final
    : public util::Configured<core::PreparedEvaluator, kRangeQueryParams> {
 public:
  using Configured::Configured;
  [[nodiscard]] core::PreparedPtr Prepare(
      const core::EvalInput& input) const override;
  [[nodiscard]] std::vector<core::MetricValue> Score(
      const core::PreparedOriginal& prepared,
      const core::EvalInput& input) const override;
  /// Foldable: the workload samples from the folded full-dataset extents
  /// (SampleQueriesFromExtent) and per-query counts are exact integer sums
  /// over shards.
  [[nodiscard]] std::unique_ptr<core::OriginalFold> MakeOriginalFold(
      std::uint64_t seed) const override;
  [[nodiscard]] std::unique_ptr<core::TraceFold> MakeScoreFold(
      std::shared_future<core::PreparedPtr> prepared,
      std::uint64_t seed) const override;
};

/// "trajectory_stats": trip-length EMD and radius-of-gyration error.
/// Prepared: the original's trip lengths, frame and radii.
class TrajectoryStatsEvaluator final : public core::PreparedEvaluator {
 public:
  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] core::PreparedPtr Prepare(
      const core::EvalInput& input) const override;
  [[nodiscard]] std::vector<core::MetricValue> Score(
      const core::PreparedOriginal& prepared,
      const core::EvalInput& input) const override;
  /// Foldable: trip lengths land in canonical slots and each user's
  /// gyration computes whole inside their home shard.
  [[nodiscard]] std::unique_ptr<core::OriginalFold> MakeOriginalFold(
      std::uint64_t seed) const override;
  [[nodiscard]] std::unique_ptr<core::TraceFold> MakeScoreFold(
      std::shared_future<core::PreparedPtr> prepared,
      std::uint64_t seed) const override;
};

/// "kdelta[delta=...m]": measured (k, delta)-anonymity of the published
/// dataset (single-dataset privacy metric; the original is ignored).
class KDeltaEvaluator final
    : public util::Configured<core::Evaluator, kKDeltaParams> {
 public:
  using Configured::Configured;
  [[nodiscard]] std::vector<core::MetricValue> Evaluate(
      const core::EvalInput& input) const override;
};

}  // namespace mobipriv::metrics
