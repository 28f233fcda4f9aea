// The no-op mechanism: publishes the dataset unchanged. Baseline row of
// every experiment table (maximum utility, zero privacy).
#pragma once

#include "mechanisms/mechanism.h"

namespace mobipriv::mech {

class Identity final : public Mechanism {
 public:
  [[nodiscard]] std::string Name() const override { return "identity"; }
  /// Straight column copy of the view — no AoS dataset, no re-interning,
  /// empty traces preserved.
  [[nodiscard]] model::EventStore ApplyToStore(const model::DatasetView& input,
                                               util::Rng& rng) const override;
};

}  // namespace mobipriv::mech
