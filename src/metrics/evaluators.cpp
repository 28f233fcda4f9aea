#include "metrics/evaluators.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geo/projection.h"
#include "metrics/spatial_distortion.h"
#include "metrics/trajectory_stats.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace mobipriv::metrics {
namespace {

// Stream salt separating the range-query workload from every other
// consumer of the grid cell's seed.
constexpr std::uint64_t kRangeQuerySalt = 0x5251554552590001ULL;

/// Shard-streamed trajectory_stats. Trip lengths are per-trace, so each
/// lands in its canonical slot and Finalize replays the whole-view trace
/// order; gyration is per-user and every user's traces share a home shard,
/// so each radius computes whole from one slice. Both sides project in the
/// original's frame, built from the engine-folded full-dataset bounding
/// box — the frame CompareTrajectoryStats builds.
class TrajectoryStatsFold final : public core::TraceFold {
 public:
  void AccumulateShard(const core::ShardSlice& slice) override {
    if (!frame_) {
      frame_.emplace(slice.original_bbox.Center());
      gyration_original_.assign(slice.user_count, 0.0);
      gyration_published_.assign(slice.user_count, 0.0);
    }
    for (std::size_t i = 0; i < slice.original.size(); ++i) {
      const std::size_t slot = slice.canonical_index[i];
      if (slot >= trip_original_.size()) {
        trip_original_.resize(slot + 1, 0.0);
        trip_published_.resize(slot + 1, 0.0);
        published_alive_.resize(slot + 1, 0);
      }
      trip_original_[slot] = slice.original[i].LengthMeters();
      if (!slice.published[i].empty()) {
        trip_published_[slot] = slice.published[i].LengthMeters();
        published_alive_[slot] = 1;
      }
    }
    AccumulateGyration(slice.original, *frame_, /*skip_empty=*/false,
                       gyration_original_);
    AccumulateGyration(slice.published, *frame_, /*skip_empty=*/true,
                       gyration_published_);
  }

  std::vector<core::MetricValue> Finalize() override {
    // Compacting the canonical slots reproduces TripLengths on each whole
    // view, suppression drops and the >= 0 filter included.
    std::vector<double> trips_orig;
    trips_orig.reserve(trip_original_.size());
    for (const double length : trip_original_) {
      if (length >= 0.0) trips_orig.push_back(length);
    }
    std::vector<double> trips_pub;
    trips_pub.reserve(trip_published_.size());
    for (std::size_t t = 0; t < trip_published_.size(); ++t) {
      if (published_alive_[t] && trip_published_[t] >= 0.0) {
        trips_pub.push_back(trip_published_[t]);
      }
    }
    const double emd = EarthMoversDistance(trips_orig, trips_pub);
    const util::Summary pub_summary = util::Summary::Of(trips_pub);

    double rel_sum = 0.0;
    std::size_t rel_n = 0;
    for (std::size_t u = 0;
         u < std::min(gyration_original_.size(), gyration_published_.size());
         ++u) {
      if (gyration_original_[u] <= 0.0) continue;
      rel_sum += std::abs(gyration_original_[u] - gyration_published_[u]) /
                 gyration_original_[u];
      ++rel_n;
    }
    const double rel_err =
        rel_n == 0 ? 0.0 : rel_sum / static_cast<double>(rel_n);
    return {{"trip_len_emd_m", emd},
            {"gyration_rel_err", rel_err},
            {"trip_len_pub_mean_m", pub_summary.mean}};
  }

 private:
  static void AccumulateGyration(std::span<const model::TraceView> traces,
                                 const geo::LocalProjection& frame,
                                 bool skip_empty, std::vector<double>& radii) {
    // Bucket the slice's traces by user in slice order (== canonical order
    // restricted to this shard), exactly the sequence AllRadiiOfGyration's
    // per-user buckets visit.
    std::unordered_map<model::UserId, std::size_t> slot;
    std::vector<model::UserId> owner;
    std::vector<std::vector<model::TraceView>> buckets;
    for (const model::TraceView& trace : traces) {
      if (skip_empty && trace.empty()) continue;
      const auto [it, inserted] = slot.try_emplace(trace.user(), buckets.size());
      if (inserted) {
        owner.push_back(trace.user());
        buckets.emplace_back();
      }
      buckets[it->second].push_back(trace);
    }
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (owner[b] < radii.size()) {
        radii[owner[b]] = RadiusOfGyrationOfTraces(buckets[b], frame);
      }
    }
  }

  std::optional<geo::LocalProjection> frame_;
  /// Canonical-slot trip lengths; `published_alive_` marks non-suppressed
  /// outputs (the whole-view published dataset keeps exactly those).
  std::vector<double> trip_original_;
  std::vector<double> trip_published_;
  std::vector<unsigned char> published_alive_;
  std::vector<double> gyration_original_;
  std::vector<double> gyration_published_;
};

/// Shard-streamed range_queries. The workload samples once, from the
/// engine-folded full-dataset extents — the identical draw sequence
/// SampleQueries makes — and per-query event counts are integers, so
/// summing them shard by shard is exact.
class RangeQueryFold final : public core::TraceFold {
 public:
  RangeQueryFold(const RangeQueryConfig& config, std::uint64_t seed)
      : config_(config), seed_(seed) {}

  void AccumulateShard(const core::ShardSlice& slice) override {
    if (!sampled_) {
      sampled_ = true;
      util::Rng rng(util::DeriveStreamSeed(seed_, kRangeQuerySalt, 0));
      queries_ = SampleQueriesFromExtent(slice.original_bbox,
                                         slice.original_t_min,
                                         slice.original_t_max, config_, rng);
      count_original_.assign(queries_.size(), 0);
      count_published_.assign(queries_.size(), 0);
    }
    // One index per side, freed on return. Suppressed outputs are empty
    // views and index no events — the same zero the whole-view path gets
    // from dropping them.
    const RangeCountIndex original(slice.original);
    const RangeCountIndex published(slice.published);
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      count_original_[q] += original.Count(queries_[q]);
      count_published_[q] += published.Count(queries_[q]);
    }
  }

  std::vector<core::MetricValue> Finalize() override {
    std::vector<double> errors(queries_.size());
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      const double denom =
          std::max<double>(1.0, static_cast<double>(count_original_[q]));
      errors[q] = std::abs(static_cast<double>(count_original_[q]) -
                           static_cast<double>(count_published_[q])) /
                  denom;
    }
    const util::Summary summary = util::Summary::Of(errors);
    return {{"range_err_median", summary.median},
            {"range_err_p95", summary.p95},
            {"range_err_mean", summary.mean}};
  }

 private:
  RangeQueryConfig config_;
  std::uint64_t seed_;
  bool sampled_ = false;
  std::vector<RangeQuery> queries_;
  std::vector<std::size_t> count_original_;
  std::vector<std::size_t> count_published_;
};

}  // namespace

std::string SpatialDistortionEvaluator::Name() const {
  return "spatial_distortion";
}

std::vector<core::MetricValue> SpatialDistortionEvaluator::Evaluate(
    const core::EvalInput& input) const {
  const DistortionSummary summary =
      MeasureDistortion(input.original, input.published);
  return {{"path_mean_m", summary.path_m.mean},
          {"path_p95_m", summary.path_m.p95},
          {"sync_mean_m", summary.synchronized_m.mean},
          {"sync_p95_m", summary.synchronized_m.p95},
          {"compared_traces", static_cast<double>(summary.compared_traces)}};
}

CoverageEvaluator::CoverageEvaluator(CoverageConfig config)
    : config_(config) {}

std::string CoverageEvaluator::Name() const {
  return "coverage[cell=" + util::FormatDouble(config_.cell_size_m, 0) + "m]";
}

std::vector<core::MetricValue> CoverageEvaluator::Evaluate(
    const core::EvalInput& input) const {
  return {{"coverage_jaccard",
           CoverageJaccard(input.original, input.published, config_)}};
}

HeatmapEvaluator::HeatmapEvaluator(HeatmapConfig config) : config_(config) {}

std::string HeatmapEvaluator::Name() const {
  return "heatmap[cell=" + util::FormatDouble(config_.cell_size_m, 0) + "m]";
}

std::vector<core::MetricValue> HeatmapEvaluator::Evaluate(
    const core::EvalInput& input) const {
  return {{"heatmap_cosine",
           HeatmapSimilarity(input.original, input.published, config_)}};
}

RangeQueryEvaluator::RangeQueryEvaluator(RangeQueryConfig config)
    : config_(config) {}

std::string RangeQueryEvaluator::Name() const {
  return "range_queries[n=" + std::to_string(config_.query_count) + "]";
}

std::vector<core::MetricValue> RangeQueryEvaluator::Evaluate(
    const core::EvalInput& input) const {
  util::Rng rng(util::DeriveStreamSeed(input.seed, kRangeQuerySalt, 0));
  const std::vector<RangeQuery> queries =
      SampleQueries(input.original, config_, rng);
  const RangeQueryReport report =
      MeasureRangeQueryError(input.original, input.published, queries);
  return {{"range_err_median", report.relative_error.median},
          {"range_err_p95", report.relative_error.p95},
          {"range_err_mean", report.relative_error.mean}};
}

std::unique_ptr<core::TraceFold> RangeQueryEvaluator::MakeTraceFold(
    std::uint64_t seed) const {
  return std::make_unique<RangeQueryFold>(config_, seed);
}

std::string TrajectoryStatsEvaluator::Name() const {
  return "trajectory_stats";
}

std::vector<core::MetricValue> TrajectoryStatsEvaluator::Evaluate(
    const core::EvalInput& input) const {
  const TrajectoryStatsReport report =
      CompareTrajectoryStats(input.original, input.published);
  return {{"trip_len_emd_m", report.trip_length_emd},
          {"gyration_rel_err", report.gyration_relative_error},
          {"trip_len_pub_mean_m", report.trip_length_published.mean}};
}

std::unique_ptr<core::TraceFold> TrajectoryStatsEvaluator::MakeTraceFold(
    std::uint64_t /*seed*/) const {
  return std::make_unique<TrajectoryStatsFold>();
}

KDeltaEvaluator::KDeltaEvaluator(KDeltaConfig config) : config_(config) {}

std::string KDeltaEvaluator::Name() const {
  // Injective on the config (the engine dedupes evaluators by name).
  const KDeltaConfig defaults;
  std::string name =
      "kdelta[delta=" + util::FormatDouble(config_.delta_m, 0) + "m";
  if (config_.grid_step_s != defaults.grid_step_s) {
    name += ",grid=" + std::to_string(config_.grid_step_s) + "s";
  }
  if (config_.tolerance != defaults.tolerance) {
    name += ",tolerance=" + util::FormatDouble(config_.tolerance, 3);
  }
  return name + "]";
}

std::vector<core::MetricValue> KDeltaEvaluator::Evaluate(
    const core::EvalInput& input) const {
  const KDeltaReport report =
      MeasureKDeltaAnonymity(input.published, config_);
  return {{"kdelta_mean_k", report.k_distribution.mean},
          {"kdelta_frac_k2", report.FractionWithK(2)},
          {"kdelta_frac_k4", report.FractionWithK(4)}};
}

}  // namespace mobipriv::metrics
