// Mechanism composition: a chain "a[...]|b[...]|c" applies its stages left
// to right, each stage consuming the previous stage's output. Chains are
// ordinary mechanisms — they register through the same CreateMechanism
// entry point (any spec text with a top-level '|') and their Name() is the
// stage Name()s joined with '|', so chain names round-trip exactly like
// single-stage names.
//
// RNG discipline (monolithic object): ApplyToStore threads the single
// caller-supplied rng through the stages in order — stage k starts
// drawing exactly where stage k-1 stopped. This makes ChainMechanism
// output trivially bitwise identical to manually applying the stages in
// sequence with one rng.
//
// The scenario engine intentionally does NOT run chains through this
// object: it compiles each chain into per-stage nodes with per-PREFIX rng
// streams (seeded from the prefix canonical name) so grid rows sharing a
// prefix can reuse one cached stage output. The two disciplines produce
// different bytes by design; they never mix because engine cache keys are
// derived from the names of what actually ran (see docs/FORMAT.md,
// "Chain prefixes and cache keys").
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "mechanisms/mechanism.h"

namespace mobipriv::mech {

class ChainMechanism final : public Mechanism {
 public:
  /// Takes ownership of the stage instances; requires >= 1 stage.
  explicit ChainMechanism(std::vector<std::unique_ptr<Mechanism>> stages);

  [[nodiscard]] std::string Name() const override;

  [[nodiscard]] model::EventStore ApplyToStore(const model::DatasetView& input,
                                               util::Rng& rng) const override;

  [[nodiscard]] const std::vector<std::unique_ptr<Mechanism>>& stages()
      const noexcept {
    return stages_;
  }

 private:
  std::vector<std::unique_ptr<Mechanism>> stages_;
};

/// Builds a ChainMechanism from a chain spec text ("a[...]|b"), creating
/// each stage through the mechanism registry. Single-stage texts return
/// the stage itself (no wrapper), so CreateChain("geo_ind") ==
/// CreateMechanism("geo_ind") in behavior and Name().
[[nodiscard]] std::unique_ptr<Mechanism> CreateChain(std::string_view text);

}  // namespace mobipriv::mech
