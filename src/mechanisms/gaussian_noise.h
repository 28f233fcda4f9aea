// Independent Gaussian perturbation baseline: isotropic planar noise of
// standard deviation sigma added to every fix. The classical location-
// alteration approach the paper contrasts with (heavy spatial distortion).
#pragma once

#include "mechanisms/mechanism.h"
#include "util/params.h"

namespace mobipriv::mech {

struct GaussianNoiseConfig {
  double sigma_m = 100.0;  ///< noise stddev per axis, metres
};

inline constexpr util::ParamTable kGaussianParams{
    "gaussian", util::Param{"sigma", &GaussianNoiseConfig::sigma_m, "m",
                            util::kNonNegative}
                    .Always()};

class GaussianNoise final
    : public util::Configured<PerTraceMechanism, kGaussianParams> {
 public:
  explicit GaussianNoise(GaussianNoiseConfig config = {});

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override;
};

}  // namespace mobipriv::mech
