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

}  // namespace

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
