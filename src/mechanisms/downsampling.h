// Temporal downsampling baseline: publish at most one fix per
// `min_interval_s`. Degrades the adversary's sampling rate rather than the
// locations themselves; also used by E6 to derive low-rate inputs.
#pragma once

#include "mechanisms/mechanism.h"
#include "util/params.h"

namespace mobipriv::mech {

struct DownsamplingConfig {
  util::Timestamp min_interval_s = 120;  ///< minimum gap between kept fixes
};

inline constexpr util::ParamTable kDownsamplingParams{
    "downsampling", util::Param{"dt", &DownsamplingConfig::min_interval_s,
                                "s", util::kPositive}
                        .Always()};

class Downsampling final
    : public util::Configured<PerTraceMechanism, kDownsamplingParams> {
 public:
  explicit Downsampling(DownsamplingConfig config = {});

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override;
};

}  // namespace mobipriv::mech
