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

namespace mobipriv::metrics {
namespace {

// Stream salt separating the range-query workload from every other
// consumer of the grid cell's seed.
constexpr std::uint64_t kRangeQuerySalt = 0x5251554552590001ULL;

/// Which side of a slice a fold reads.
enum class Side { kOriginal, kPublished };

std::span<const model::TraceView> SideOf(const core::ShardSlice& slice,
                                         Side side) {
  return side == Side::kOriginal ? slice.original : slice.published;
}

/// One side of the shard-streamed trajectory_stats. Trip lengths are
/// per-trace, so each lands in its canonical slot and Trips() replays the
/// whole-view trace order; gyration is per-user and every user's traces
/// share a home shard, so each radius computes whole from one slice. Both
/// sides project in the original's frame, built from the engine-folded
/// full-dataset bounding box — the frame PrepareTrajectoryStats builds.
class TripGyrationAccumulator {
 public:
  explicit TripGyrationAccumulator(Side side) : side_(side) {}

  void Accumulate(const core::ShardSlice& slice) {
    if (!frame_) {
      frame_.emplace(slice.original_bbox.Center());
      gyration_.assign(slice.user_count, 0.0);
    }
    const std::span<const model::TraceView> traces = SideOf(slice, side_);
    const bool published = side_ == Side::kPublished;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const std::size_t slot = slice.canonical_index[i];
      if (slot >= trips_.size()) {
        trips_.resize(slot + 1, 0.0);
        alive_.resize(slot + 1, 0);
      }
      // The whole-view published dataset drops suppressed (empty) outputs.
      if (published && traces[i].empty()) continue;
      trips_[slot] = traces[i].LengthMeters();
      alive_[slot] = 1;
    }
    AccumulateGyration(traces, *frame_, /*skip_empty=*/published, gyration_);
  }

  /// Compacting the canonical slots reproduces TripLengths on the whole
  /// view, suppression drops and the >= 0 filter included.
  [[nodiscard]] std::vector<double> Trips() const {
    std::vector<double> trips;
    trips.reserve(trips_.size());
    for (std::size_t t = 0; t < trips_.size(); ++t) {
      if (alive_[t] && trips_[t] >= 0.0) trips.push_back(trips_[t]);
    }
    return trips;
  }
  [[nodiscard]] const geo::LocalProjection& frame() const { return *frame_; }
  [[nodiscard]] std::vector<double> TakeGyration() {
    return std::move(gyration_);
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

  Side side_;
  std::optional<geo::LocalProjection> frame_;
  /// Canonical-slot trip lengths; `alive_` marks the slots the whole-view
  /// dataset of this side keeps.
  std::vector<double> trips_;
  std::vector<unsigned char> alive_;
  std::vector<double> gyration_;
};

std::vector<core::MetricValue> TrajectoryStatsMetrics(
    const TrajectoryStatsReport& report) {
  return {{"trip_len_emd_m", report.trip_length_emd},
          {"gyration_rel_err", report.gyration_relative_error},
          {"trip_len_pub_mean_m", report.trip_length_published.mean}};
}

class TrajectoryStatsOriginalFold final : public core::OriginalFold {
 public:
  void AccumulateShard(const core::ShardSlice& slice) override {
    original_.Accumulate(slice);
  }
  core::PreparedPtr Finalize() override {
    return core::MakePrepared(TrajectoryStatsOriginal{
        original_.Trips(), original_.frame(), original_.TakeGyration()});
  }

 private:
  TripGyrationAccumulator original_{Side::kOriginal};
};

class TrajectoryStatsScoreFold final : public core::TraceFold {
 public:
  explicit TrajectoryStatsScoreFold(
      std::shared_future<core::PreparedPtr> prepared)
      : prepared_(std::move(prepared)) {}

  void AccumulateShard(const core::ShardSlice& slice) override {
    published_.Accumulate(slice);
  }
  std::vector<core::MetricValue> Finalize() override {
    return TrajectoryStatsMetrics(SummarizeTrajectoryStats(
        core::PreparedAs<TrajectoryStatsOriginal>(*prepared_.get()),
        published_.Trips(), published_.TakeGyration()));
  }

 private:
  std::shared_future<core::PreparedPtr> prepared_;
  TripGyrationAccumulator published_{Side::kPublished};
};

/// range_queries' prepared side: the workload and its original counts.
struct RangeQueryOriginal {
  std::vector<RangeQuery> queries;
  std::vector<std::size_t> counts;
};

std::vector<core::MetricValue> RangeQueryMetrics(
    const RangeQueryReport& report) {
  return {{"range_err_median", report.relative_error.median},
          {"range_err_p95", report.relative_error.p95},
          {"range_err_mean", report.relative_error.mean}};
}

/// One side of the shard-streamed range_queries. The workload samples
/// once, from the engine-folded full-dataset extents — the identical draw
/// sequence SampleQueries makes — and per-query event counts are
/// integers, so summing them shard by shard is exact.
class RangeCountAccumulator {
 public:
  RangeCountAccumulator(Side side, const RangeQueryConfig& config,
                        std::uint64_t seed)
      : side_(side), config_(config), seed_(seed) {}

  void Accumulate(const core::ShardSlice& slice) {
    if (!sampled_) {
      sampled_ = true;
      util::Rng rng(util::DeriveStreamSeed(seed_, kRangeQuerySalt, 0));
      queries_ = SampleQueriesFromExtent(slice.original_bbox,
                                         slice.original_t_min,
                                         slice.original_t_max, config_, rng);
      counts_.assign(queries_.size(), 0);
    }
    // Suppressed outputs are empty views and index no events — the same
    // zero the whole-view path gets from dropping them.
    const std::vector<std::size_t> shard =
        CountQueries(SideOf(slice, side_), queries_);
    for (std::size_t q = 0; q < queries_.size(); ++q) counts_[q] += shard[q];
  }

  [[nodiscard]] RangeQueryOriginal Take() {
    return {std::move(queries_), std::move(counts_)};
  }

 private:
  Side side_;
  RangeQueryConfig config_;
  std::uint64_t seed_;
  bool sampled_ = false;
  std::vector<RangeQuery> queries_;
  std::vector<std::size_t> counts_;
};

class RangeQueryOriginalFold final : public core::OriginalFold {
 public:
  RangeQueryOriginalFold(const RangeQueryConfig& config, std::uint64_t seed)
      : original_(Side::kOriginal, config, seed) {}
  void AccumulateShard(const core::ShardSlice& slice) override {
    original_.Accumulate(slice);
  }
  core::PreparedPtr Finalize() override {
    return core::MakePrepared(original_.Take());
  }

 private:
  RangeCountAccumulator original_;
};

class RangeQueryScoreFold final : public core::TraceFold {
 public:
  RangeQueryScoreFold(std::shared_future<core::PreparedPtr> prepared,
                      const RangeQueryConfig& config, std::uint64_t seed)
      : prepared_(std::move(prepared)),
        published_(Side::kPublished, config, seed) {}
  void AccumulateShard(const core::ShardSlice& slice) override {
    published_.Accumulate(slice);
  }
  std::vector<core::MetricValue> Finalize() override {
    const RangeQueryOriginal& original =
        core::PreparedAs<RangeQueryOriginal>(*prepared_.get());
    return RangeQueryMetrics(SummarizeRangeQueryError(
        original.counts, published_.Take().counts));
  }

 private:
  std::shared_future<core::PreparedPtr> prepared_;
  RangeCountAccumulator published_;
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

std::vector<core::MetricValue> CoverageEvaluator::Evaluate(
    const core::EvalInput& input) const {
  return {{"coverage_jaccard",
           CoverageJaccard(input.original, input.published, config_)}};
}

std::vector<core::MetricValue> HeatmapEvaluator::Evaluate(
    const core::EvalInput& input) const {
  return {{"heatmap_cosine",
           HeatmapSimilarity(input.original, input.published, config_)}};
}

core::PreparedPtr RangeQueryEvaluator::Prepare(
    const core::EvalInput& input) const {
  util::Rng rng(util::DeriveStreamSeed(input.seed, kRangeQuerySalt, 0));
  RangeQueryOriginal original;
  original.queries = SampleQueries(input.original, config_, rng);
  original.counts = CountQueries(input.original.traces(), original.queries);
  return core::MakePrepared(std::move(original));
}

std::vector<core::MetricValue> RangeQueryEvaluator::Score(
    const core::PreparedOriginal& prepared,
    const core::EvalInput& input) const {
  const RangeQueryOriginal& original =
      core::PreparedAs<RangeQueryOriginal>(prepared);
  return RangeQueryMetrics(SummarizeRangeQueryError(
      original.counts,
      CountQueries(input.published.traces(), original.queries)));
}

std::unique_ptr<core::OriginalFold> RangeQueryEvaluator::MakeOriginalFold(
    std::uint64_t seed) const {
  return std::make_unique<RangeQueryOriginalFold>(config_, seed);
}

std::unique_ptr<core::TraceFold> RangeQueryEvaluator::MakeScoreFold(
    std::shared_future<core::PreparedPtr> prepared,
    std::uint64_t seed) const {
  return std::make_unique<RangeQueryScoreFold>(std::move(prepared), config_,
                                               seed);
}

std::string TrajectoryStatsEvaluator::Name() const {
  return "trajectory_stats";
}

core::PreparedPtr TrajectoryStatsEvaluator::Prepare(
    const core::EvalInput& input) const {
  return core::MakePrepared(PrepareTrajectoryStats(input.original));
}

std::vector<core::MetricValue> TrajectoryStatsEvaluator::Score(
    const core::PreparedOriginal& prepared,
    const core::EvalInput& input) const {
  return TrajectoryStatsMetrics(CompareTrajectoryStats(
      core::PreparedAs<TrajectoryStatsOriginal>(prepared), input.published));
}

std::unique_ptr<core::OriginalFold>
TrajectoryStatsEvaluator::MakeOriginalFold(std::uint64_t /*seed*/) const {
  return std::make_unique<TrajectoryStatsOriginalFold>();
}

std::unique_ptr<core::TraceFold> TrajectoryStatsEvaluator::MakeScoreFold(
    std::shared_future<core::PreparedPtr> prepared,
    std::uint64_t /*seed*/) const {
  return std::make_unique<TrajectoryStatsScoreFold>(std::move(prepared));
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
