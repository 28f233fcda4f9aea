#include "core/evaluator.h"

#include <map>
#include <mutex>

#include "attacks/evaluators.h"
#include "mechanisms/registry.h"
#include "metrics/evaluators.h"
#include "privacy/evaluators.h"

namespace mobipriv::core {
namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, EvaluatorFactory, std::less<>> factories;
};

Registry& GlobalRegistry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    auto& f = r->factories;
    f["spatial_distortion"] =
        [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({}, "spatial_distortion");
      return std::make_unique<metrics::SpatialDistortionEvaluator>();
    };
    f["coverage"] = [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({"cell"}, "coverage");
      metrics::CoverageConfig config;
      config.cell_size_m = spec.NumberOf("cell", config.cell_size_m);
      return std::make_unique<metrics::CoverageEvaluator>(config);
    };
    f["heatmap"] = [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({"cell"}, "heatmap");
      metrics::HeatmapConfig config;
      config.cell_size_m = spec.NumberOf("cell", config.cell_size_m);
      return std::make_unique<metrics::HeatmapEvaluator>(config);
    };
    f["range_queries"] =
        [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({"n"}, "range_queries");
      metrics::RangeQueryConfig config;
      config.query_count = static_cast<std::size_t>(spec.IntOf(
          "n", static_cast<std::int64_t>(config.query_count)));
      return std::make_unique<metrics::RangeQueryEvaluator>(config);
    };
    f["trajectory_stats"] =
        [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({}, "trajectory_stats");
      return std::make_unique<metrics::TrajectoryStatsEvaluator>();
    };
    f["kdelta"] = [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({"delta", "grid", "tolerance"}, "kdelta");
      metrics::KDeltaConfig config;
      config.delta_m = spec.NumberOf("delta", config.delta_m);
      config.grid_step_s = static_cast<util::Timestamp>(
          spec.IntOf("grid", config.grid_step_s));
      config.tolerance = spec.NumberOf("tolerance", config.tolerance);
      return std::make_unique<metrics::KDeltaEvaluator>(config);
    };
    f["poi_attack"] =
        [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({"radius", "diameter", "dwell"}, "poi_attack");
      attacks::PoiExtractionConfig extraction;
      extraction.max_diameter_m =
          spec.NumberOf("diameter", extraction.max_diameter_m);
      extraction.min_duration_s = static_cast<util::Timestamp>(
          spec.IntOf("dwell", extraction.min_duration_s));
      const double radius = spec.NumberOf("radius", 250.0);
      return std::make_unique<attacks::PoiAttackEvaluator>(extraction,
                                                           radius);
    };
    f["reident"] = [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({}, "reident");
      return std::make_unique<attacks::ReidentEvaluator>();
    };
    f["home_work"] =
        [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({"radius"}, "home_work");
      const double radius = spec.NumberOf("radius", 300.0);
      return std::make_unique<attacks::HomeWorkEvaluator>(
          attacks::HomeWorkConfig{}, radius);
    };
    f["certification"] =
        [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({"spacing", "interval", "min_events"},
                            "certification");
      privacy::CertificationConfig config;
      config.max_spacing_deviation =
          spec.NumberOf("spacing", config.max_spacing_deviation);
      config.max_interval_deviation_s =
          spec.NumberOf("interval", config.max_interval_deviation_s);
      config.min_events_checked = static_cast<std::size_t>(spec.IntOf(
          "min_events", static_cast<std::int64_t>(config.min_events_checked)));
      return std::make_unique<privacy::CertificationEvaluator>(config);
    };
    f["uncertainty"] =
        [](const util::Spec& spec) -> std::unique_ptr<Evaluator> {
      spec.RequireKnownKeys({"r", "w", "min_users"}, "uncertainty");
      return std::make_unique<privacy::UncertaintyEvaluator>(
          mech::ParseMixZoneConfig(spec));
    };
    return r;
  }();
  return *registry;
}

/// PreparedEvaluator::MakeTraceFold: one cell's OriginalFold and score
/// fold on the same slices. The original side finalizes first, so the
/// score fold's future is ready when its own Finalize reads it.
class PreparedCellFold final : public TraceFold {
 public:
  PreparedCellFold(std::unique_ptr<OriginalFold> original,
                   std::promise<PreparedPtr> prepared,
                   std::unique_ptr<TraceFold> score)
      : original_(std::move(original)),
        prepared_(std::move(prepared)),
        score_(std::move(score)) {}

  void AccumulateShard(const ShardSlice& slice) override {
    original_->AccumulateShard(slice);
    score_->AccumulateShard(slice);
  }

  std::vector<MetricValue> Finalize() override {
    prepared_.set_value(original_->Finalize());
    return score_->Finalize();
  }

 private:
  std::unique_ptr<OriginalFold> original_;
  std::promise<PreparedPtr> prepared_;
  std::unique_ptr<TraceFold> score_;
};

}  // namespace

std::unique_ptr<OriginalFold> PreparedEvaluator::MakeOriginalFold(
    std::uint64_t /*seed*/) const {
  return nullptr;
}

std::unique_ptr<TraceFold> PreparedEvaluator::MakeScoreFold(
    std::shared_future<PreparedPtr> /*prepared*/,
    std::uint64_t /*seed*/) const {
  return nullptr;
}

std::vector<MetricValue> PreparedEvaluator::Evaluate(
    const EvalInput& input) const {
  return Score(*Prepare(input), input);
}

std::unique_ptr<TraceFold> PreparedEvaluator::MakeTraceFold(
    std::uint64_t seed) const {
  std::unique_ptr<OriginalFold> original = MakeOriginalFold(seed);
  if (!original) return nullptr;
  std::promise<PreparedPtr> prepared;
  std::unique_ptr<TraceFold> score =
      MakeScoreFold(prepared.get_future().share(), seed);
  return std::make_unique<PreparedCellFold>(
      std::move(original), std::move(prepared), std::move(score));
}

void RegisterEvaluator(std::string base, EvaluatorFactory factory) {
  Registry& registry = GlobalRegistry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  registry.factories[std::move(base)] = std::move(factory);
}

std::unique_ptr<Evaluator> CreateEvaluator(std::string_view spec_text) {
  const util::Spec spec = util::Spec::Parse(spec_text);
  EvaluatorFactory factory;
  {
    Registry& registry = GlobalRegistry();
    const std::lock_guard<std::mutex> lock(registry.mutex);
    const auto it = registry.factories.find(spec.base());
    if (it == registry.factories.end()) {
      std::string known;
      for (const auto& [base, unused] : registry.factories) {
        if (!known.empty()) known += ", ";
        known += base;
      }
      throw util::SpecError("unknown evaluator \"" + spec.base() +
                            "\" (registered: " + known + ")");
    }
    factory = it->second;
  }
  return factory(spec);
}

std::vector<std::string> RegisteredEvaluatorBases() {
  Registry& registry = GlobalRegistry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::string> bases;
  bases.reserve(registry.factories.size());
  for (const auto& [base, unused] : registry.factories) bases.push_back(base);
  return bases;
}

}  // namespace mobipriv::core
