// Spatial cloaking baseline: every location is snapped to the centre of its
// cell in a fixed square grid (the "simple anonymization technique" class
// the paper's abstract warns about). Cheap, deterministic, and a useful
// utility/privacy anchor between identity and heavy noise.
#pragma once

#include "mechanisms/mechanism.h"

namespace mobipriv::mech {

struct CloakingConfig {
  double cell_size_m = 250.0;  ///< grid cell edge length
};

class Cloaking final : public PerTraceMechanism {
 public:
  explicit Cloaking(CloakingConfig config = {});

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] const CloakingConfig& config() const noexcept {
    return config_;
  }

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override;

 private:
  CloakingConfig config_;
};

}  // namespace mobipriv::mech
