#include "mechanisms/registry.h"

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
#include "util/spec_registry.h"

namespace mobipriv::mech {
namespace {

/// "ours[...]": the bracket body is stage flags joined by '+'
/// ("speed+mix", "speed", "mix") plus the keys of the stages that run
/// (core::kOursSpeedParams, core::kOursMixZoneParams).
std::unique_ptr<Mechanism> MakeOurs(const util::Spec& spec) {
  bool speed = false;
  bool mix = false;
  bool any_flag = false;
  for (const util::Spec::Entry& entry : spec.entries()) {
    if (entry.has_value) continue;
    any_flag = true;
    std::stringstream tokens(entry.key);
    std::string token;
    while (std::getline(tokens, token, '+')) {
      if (token != "speed" && token != "mix") {
        throw util::SpecError("ours: unknown stage \"" + token +
                              "\" (expected speed and/or mix)");
      }
      (token == "speed" ? speed : mix) = true;
    }
  }
  // Bare "ours" means the full pipeline.
  core::AnonymizerConfig config;
  config.enable_speed_smoothing = !any_flag || speed;
  config.enable_mixzones = !any_flag || mix;
  // A key of a stage that does not run would change the config but not
  // the output or the name, so it is rejected like an unknown key.
  spec.RequireKnownKeys(
      [&](const util::Spec::Entry& entry) {
        return !entry.has_value ||
               (config.enable_speed_smoothing &&
                core::kOursSpeedParams.Has(entry.key)) ||
               (config.enable_mixzones &&
                core::kOursMixZoneParams.Has(entry.key));
      },
      "ours");
  core::kOursSpeedParams.Read(spec, config.speed);
  core::kOursMixZoneParams.Read(spec, config.mixzone);
  return std::make_unique<core::Anonymizer>(config);
}

util::SpecRegistry<Mechanism>& GlobalRegistry() {
  static auto* registry = [] {
    auto* r = new util::SpecRegistry<Mechanism>("mechanism");
    r->AddBare<Identity>("identity");
    r->Add<SpeedSmoothing>();
    r->Add<MixZone>();
    r->Add<GeoIndistinguishability>();
    r->Add<Wait4Me>();
    r->Add<Cloaking>();
    r->Add<GaussianNoise>();
    r->Add<Downsampling>();
    std::vector<util::ParamInfo> ours = core::kOursSpeedParams.Info();
    const auto mix = core::kOursMixZoneParams.Info();
    ours.insert(ours.end(), mix.begin(), mix.end());
    r->Register("ours", MakeOurs, std::move(ours));
    return r;
  }();
  return *registry;
}

}  // namespace

void RegisterMechanism(std::string base, MechanismFactory factory) {
  GlobalRegistry().Register(std::move(base), std::move(factory));
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
  return GlobalRegistry().Create(util::Spec::Parse(spec_text));
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
  return GlobalRegistry().Bases();
}

std::vector<util::ParamInfo> MechanismParams(std::string_view base) {
  return GlobalRegistry().Params(std::string(base));
}

}  // namespace mobipriv::mech
