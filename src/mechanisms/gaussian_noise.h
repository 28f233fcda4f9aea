// Independent Gaussian perturbation baseline: isotropic planar noise of
// standard deviation sigma added to every fix. The classical location-
// alteration approach the paper contrasts with (heavy spatial distortion).
#pragma once

#include "mechanisms/mechanism.h"

namespace mobipriv::mech {

struct GaussianNoiseConfig {
  double sigma_m = 100.0;  ///< noise stddev per axis, metres
};

class GaussianNoise final : public PerTraceMechanism {
 public:
  explicit GaussianNoise(GaussianNoiseConfig config = {});

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] const GaussianNoiseConfig& config() const noexcept {
    return config_;
  }

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override;

 private:
  GaussianNoiseConfig config_;
};

}  // namespace mobipriv::mech
