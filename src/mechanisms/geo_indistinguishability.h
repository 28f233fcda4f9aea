// Geo-indistinguishability baseline (Andres et al., CCS'13 [2]): each
// location is independently perturbed with noise drawn from the planar
// Laplace distribution, the mechanism that achieves eps-geo-
// indistinguishability. The paper (Section II) reports that on real data
// this does *not* prevent POI extraction — at least 60 % of POIs survive
// even at high privacy levels — because a cloud of noisy points around a
// long stop still forms a cluster. Bench E2 reproduces that qualitative
// result against our POI attack.
//
// Sampling follows the authors' polar method: angle uniform in [0, 2*pi);
// radius r = C_eps^{-1}(p) = -(1/eps) * (W_{-1}((p-1)/e) + 1) with W_{-1}
// the lower branch of the Lambert W function, implemented here with a
// Halley iteration (no external dependencies).
#pragma once

#include "mechanisms/mechanism.h"
#include "util/params.h"

namespace mobipriv::mech {

struct GeoIndConfig {
  /// Privacy budget per point, in 1/metres. eps = ln(x)/r means locations r
  /// metres apart have likelihood ratio at most x. Typical evaluated range:
  /// 0.001 (strong, ~km-scale noise) to 0.1 (weak, ~10 m noise).
  double epsilon = 0.01;
};

inline constexpr util::ParamTable kGeoIndParams{
    "geo_ind",
    util::Param{"eps", &GeoIndConfig::epsilon, "", util::kPositive}
        .Always()
        .Digits(4)};

/// Lower branch W_{-1}(x) of the Lambert W function for x in [-1/e, 0).
/// Exposed for direct testing against the defining identity W*e^W = x.
[[nodiscard]] double LambertWMinus1(double x);

/// Draws one planar-Laplace radius for budget `epsilon` (inverse-CDF).
[[nodiscard]] double SamplePlanarLaplaceRadius(double epsilon,
                                               util::Rng& rng);

class GeoIndistinguishability final
    : public util::Configured<PerTraceMechanism, kGeoIndParams> {
 public:
  explicit GeoIndistinguishability(GeoIndConfig config = {});

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override;
};

}  // namespace mobipriv::mech
