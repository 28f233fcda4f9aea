// String-keyed mechanism registry: every mechanism in the library (and any
// user-registered extension) can be instantiated from the spec string its
// Name() prints. A built-in's keys are one util::ParamTable, so names
// round-trip and are injective on the config:
//
//   CreateMechanism(m->Name())->Name() == m->Name()
//
// This is what lets an experiment grid be *declarative*: a ScenarioSpec
// names mechanisms as strings ("geo_ind[eps=0.0100]", "ours[speed]",
// "wait4me[k=4,delta=500m]"), the engine builds them on demand and
// memoizes them by name (core::StandardRosterSpecs is a canned list of
// spec strings over this registry).
//
// Grammar: util::Spec ("base[key=value,...]"; numeric values may carry a
// unit suffix). Spec texts with a top-level '|' are chains
// ("geo_ind[eps=0.1]|downsampling"). A chain is not a mechanism: it
// exists only as a scenario-engine plan, one node per stage with its own
// per-prefix rng stream (core/engine.h), so CreateMechanism rejects it
// and ChainName gives its canonical name. Unknown bases, unknown
// parameters and out-of-range values throw util::SpecError — a typo'd
// grid cell fails loudly at compile time, not silently at report time.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mechanisms/mechanism.h"
#include "util/params.h"
#include "util/spec.h"

namespace mobipriv::mech {

/// Builds a mechanism from a parsed spec. Factories must validate their
/// parameters (util::Spec::RequireKnownKeys) and throw util::SpecError on
/// anything they do not understand.
using MechanismFactory =
    std::function<std::unique_ptr<Mechanism>(const util::Spec&)>;

/// Registers (or replaces) the factory for `base`. The library's own
/// mechanisms are pre-registered; this is the extension point for
/// downstream mechanisms, which then participate in scenario grids like
/// any built-in.
void RegisterMechanism(std::string base, MechanismFactory factory);

/// Instantiates a mechanism from its spec string. Throws util::SpecError
/// on malformed specs, unknown base names or unknown parameters, and on a
/// chain text (top-level '|'), which only the scenario engine runs.
[[nodiscard]] std::unique_ptr<Mechanism> CreateMechanism(
    std::string_view spec);

/// Canonical name of a spec text: its stages' Name()s joined with '|'
/// ("geo_ind[eps=0.1]|downsampling" names
/// "geo_ind[eps=0.1000]|downsampling[dt=120s]"). A single-stage text
/// gives CreateMechanism(text)->Name().
/// This is the name the scenario engine gives a chain's report rows and
/// its terminal stage node (and hence its cache key). Throws
/// util::SpecError like CreateMechanism on any bad stage.
[[nodiscard]] std::string ChainName(std::string_view text);

/// Registered base names, sorted (for error messages and --help output).
[[nodiscard]] std::vector<std::string> RegisteredMechanismBases();

/// The parameter table `base` parses (util/params.h): empty for a base
/// without parameters, an extension or an unknown base.
[[nodiscard]] std::vector<util::ParamInfo> MechanismParams(
    std::string_view base);

}  // namespace mobipriv::mech
