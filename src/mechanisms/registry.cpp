#include "mechanisms/registry.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>

// The "ours" pipeline is assembled in core/ (it composes two mech/
// stages), but its Name() must round-trip
// through this registry like every baseline's, so the registry reaches up
// one layer for the one composite the paper is about.
#include "core/anonymizer.h"
#include "mechanisms/cloaking.h"
#include "mechanisms/downsampling.h"
#include "mechanisms/gaussian_noise.h"
#include "mechanisms/geo_indistinguishability.h"
#include "mechanisms/identity.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "mechanisms/wait4me.h"

namespace mobipriv::mech {
namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, MechanismFactory, std::less<>> factories;
};

void FillSpeedConfig(const util::Spec& spec, SpeedSmoothingConfig& config) {
  config.spacing_m = spec.NumberOf("eps", config.spacing_m);
  config.min_length_m = spec.NumberOf("min_len", config.min_length_m);
}

/// "ours[...]": the bracket body is stage flags joined by '+'
/// ("speed+mix", "speed", "mix") plus optional stage parameters. Stage
/// knobs reuse the stage mechanisms' parameter names (eps/min_len for
/// speed smoothing, r/w/min_users for mix zones).
std::unique_ptr<Mechanism> MakeOurs(const util::Spec& spec) {
  core::AnonymizerConfig config;
  bool speed = false;
  bool mix = false;
  bool any_flag = false;
  for (const util::Spec::Entry& entry : spec.entries()) {
    if (entry.has_value) continue;
    any_flag = true;
    std::stringstream tokens(entry.key);
    std::string token;
    while (std::getline(tokens, token, '+')) {
      if (token == "speed") {
        speed = true;
      } else if (token == "mix") {
        mix = true;
      } else {
        throw util::SpecError("ours: unknown stage \"" + token +
                              "\" (expected speed and/or mix)");
      }
    }
  }
  // Bare "ours" means the full pipeline.
  config.enable_speed_smoothing = !any_flag || speed;
  config.enable_mixzones = !any_flag || mix;
  for (const util::Spec::Entry& entry : spec.entries()) {
    if (!entry.has_value) continue;
    static constexpr std::string_view kKnown[] = {"eps", "min_len", "r", "w",
                                                  "min_users", "suppress"};
    if (std::find(std::begin(kKnown), std::end(kKnown), entry.key) ==
        std::end(kKnown)) {
      throw util::SpecError("ours: unknown parameter \"" + entry.key + "\"");
    }
  }
  FillSpeedConfig(spec, config.speed);
  config.mixzone = ParseMixZoneConfig(spec);
  return std::make_unique<core::Anonymizer>(config);
}

Registry& GlobalRegistry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    auto& f = r->factories;
    f["identity"] = [](const util::Spec& spec) -> std::unique_ptr<Mechanism> {
      spec.RequireKnownKeys({}, "identity");
      return std::make_unique<Identity>();
    };
    f["speed_smoothing"] =
        [](const util::Spec& spec) -> std::unique_ptr<Mechanism> {
      spec.RequireKnownKeys({"eps", "min_len"}, "speed_smoothing");
      SpeedSmoothingConfig config;
      FillSpeedConfig(spec, config);
      return std::make_unique<SpeedSmoothing>(config);
    };
    f["mixzone"] = [](const util::Spec& spec) -> std::unique_ptr<Mechanism> {
      spec.RequireKnownKeys({"r", "w", "min_users", "suppress"}, "mixzone");
      return std::make_unique<MixZone>(ParseMixZoneConfig(spec));
    };
    f["geo_ind"] = [](const util::Spec& spec) -> std::unique_ptr<Mechanism> {
      spec.RequireKnownKeys({"eps"}, "geo_ind");
      GeoIndConfig config;
      config.epsilon = spec.NumberOf("eps", config.epsilon);
      return std::make_unique<GeoIndistinguishability>(config);
    };
    f["wait4me"] = [](const util::Spec& spec) -> std::unique_ptr<Mechanism> {
      spec.RequireKnownKeys({"k", "delta", "grid", "overlap"}, "wait4me");
      Wait4MeConfig config;
      config.k = static_cast<std::size_t>(
          spec.IntOf("k", static_cast<std::int64_t>(config.k)));
      config.delta_m = spec.NumberOf("delta", config.delta_m);
      config.grid_step_s =
          static_cast<util::Timestamp>(spec.IntOf("grid", config.grid_step_s));
      config.min_overlap_fraction =
          spec.NumberOf("overlap", config.min_overlap_fraction);
      return std::make_unique<Wait4Me>(config);
    };
    f["cloaking"] = [](const util::Spec& spec) -> std::unique_ptr<Mechanism> {
      spec.RequireKnownKeys({"cell"}, "cloaking");
      CloakingConfig config;
      config.cell_size_m = spec.NumberOf("cell", config.cell_size_m);
      return std::make_unique<Cloaking>(config);
    };
    f["gaussian"] = [](const util::Spec& spec) -> std::unique_ptr<Mechanism> {
      spec.RequireKnownKeys({"sigma"}, "gaussian");
      GaussianNoiseConfig config;
      config.sigma_m = spec.NumberOf("sigma", config.sigma_m);
      return std::make_unique<GaussianNoise>(config);
    };
    f["downsampling"] =
        [](const util::Spec& spec) -> std::unique_ptr<Mechanism> {
      spec.RequireKnownKeys({"dt"}, "downsampling");
      DownsamplingConfig config;
      config.min_interval_s = static_cast<util::Timestamp>(
          spec.IntOf("dt", config.min_interval_s));
      return std::make_unique<Downsampling>(config);
    };
    f["ours"] = MakeOurs;
    return r;
  }();
  return *registry;
}

}  // namespace

MixZoneConfig ParseMixZoneConfig(const util::Spec& spec) {
  const auto require = [&](bool valid, const char* key, const char* rule) {
    if (valid) return;
    throw util::SpecError("spec " + spec.ToString() + ": parameter " + key +
                          " must be " + rule);
  };
  MixZoneConfig config;
  config.zone_radius_m = spec.NumberOf("r", config.zone_radius_m);
  require(std::isfinite(config.zone_radius_m) && config.zone_radius_m > 0.0,
          "r", "finite and > 0");
  config.time_window_s = spec.IntOf("w", config.time_window_s);
  require(config.time_window_s > 0, "w", "> 0");
  const std::int64_t min_users =
      spec.IntOf("min_users", static_cast<std::int64_t>(config.min_users));
  require(min_users >= 2, "min_users", ">= 2");
  config.min_users = static_cast<std::size_t>(min_users);
  config.suppress_zone_points = spec.IntOf("suppress", 1) != 0;
  return config;
}

void RegisterMechanism(std::string base, MechanismFactory factory) {
  Registry& registry = GlobalRegistry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  registry.factories[std::move(base)] = std::move(factory);
}

std::unique_ptr<Mechanism> CreateMechanism(std::string_view spec_text) {
  // '|' separates chain stages only at the top level ("a[x|y]" is one
  // spec), and a chain is not a mechanism: the engine plans it per stage.
  if (util::SplitTopLevel(spec_text, '|').size() > 1) {
    throw util::SpecError("\"" + std::string(spec_text) +
                          "\" is a mechanism chain; chains run through the "
                          "scenario engine (core::ScenarioEngine), not as "
                          "one mechanism");
  }
  const util::Spec spec = util::Spec::Parse(spec_text);
  MechanismFactory factory;
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
      throw util::SpecError("unknown mechanism \"" + spec.base() +
                            "\" (registered: " + known + ")");
    }
    factory = it->second;
  }
  return factory(spec);
}

std::string ChainName(std::string_view text) {
  const util::SpecChain chain = util::SpecChain::Parse(text);
  std::string name;
  for (const util::Spec& stage : chain.stages()) {
    if (!name.empty()) name += '|';
    name += CreateMechanism(stage.ToString())->Name();
  }
  return name;
}

std::vector<std::string> RegisteredMechanismBases() {
  Registry& registry = GlobalRegistry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::string> bases;
  bases.reserve(registry.factories.size());
  for (const auto& [base, unused] : registry.factories) bases.push_back(base);
  return bases;
}

}  // namespace mobipriv::mech
