// Spatial cloaking baseline: every location is snapped to the centre of its
// cell in a fixed square grid (the "simple anonymization technique" class
// the paper's abstract warns about). Cheap, deterministic, and a useful
// utility/privacy anchor between identity and heavy noise.
#pragma once

#include "mechanisms/mechanism.h"
#include "util/params.h"

namespace mobipriv::mech {

struct CloakingConfig {
  double cell_size_m = 250.0;  ///< grid cell edge length
};

inline constexpr util::ParamTable kCloakingParams{
    "cloaking", util::Param{"cell", &CloakingConfig::cell_size_m, "m",
                            util::kPositive}
                    .Always()};

class Cloaking final
    : public util::Configured<PerTraceMechanism, kCloakingParams> {
 public:
  explicit Cloaking(CloakingConfig config = {});

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override;
};

}  // namespace mobipriv::mech
