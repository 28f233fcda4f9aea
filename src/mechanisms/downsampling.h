// Temporal downsampling baseline: publish at most one fix per
// `min_interval_s`. Degrades the adversary's sampling rate rather than the
// locations themselves; also used by E6 to derive low-rate inputs.
#pragma once

#include "mechanisms/mechanism.h"

namespace mobipriv::mech {

struct DownsamplingConfig {
  util::Timestamp min_interval_s = 120;  ///< minimum gap between kept fixes
};

class Downsampling final : public PerTraceMechanism {
 public:
  explicit Downsampling(DownsamplingConfig config = {});

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] const DownsamplingConfig& config() const noexcept {
    return config_;
  }

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override;

 private:
  DownsamplingConfig config_;
};

}  // namespace mobipriv::mech
