// String-keyed mechanism registry: every mechanism in the library (and any
// user-registered extension) can be instantiated from the spec string its
// Name() prints — Name() is round-trippable:
//
//   CreateMechanism(m->Name())->Name() == m->Name()
//
// for every mechanism the library ships. This is what lets an experiment
// grid be *declarative*: a ScenarioSpec names mechanisms as strings
// ("geo_ind[eps=0.0100]", "ours[speed]", "wait4me[k=4,delta=500m]") and
// the engine builds them on demand, replacing the hardcoded roster loops
// the bench binaries used to copy around (core::StandardRosterSpecs is a
// canned list of spec strings over this registry).
//
// Grammar: util::Spec ("base[key=value,...]"; numeric values may carry a
// unit suffix). Spec texts with a top-level '|' are chains
// ("geo_ind[eps=0.1]|downsampling") and build a mech::ChainMechanism that
// applies the stages left to right. Unknown bases and unknown parameters
// throw util::SpecError — a typo'd grid cell fails loudly at compile
// time, not silently at report time.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mechanisms/mechanism.h"
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
/// on malformed specs, unknown base names or unknown parameters.
[[nodiscard]] std::unique_ptr<Mechanism> CreateMechanism(
    std::string_view spec);

/// Registered base names, sorted (for error messages and --help output).
[[nodiscard]] std::vector<std::string> RegisteredMechanismBases();

}  // namespace mobipriv::mech
