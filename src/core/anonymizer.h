// The paper's complete solution as a single publication pipeline:
//   raw dataset -> [stage 1: constant-speed time distortion]
//               -> [stage 2: mix-zone trajectory swapping]
//               -> published dataset
// Either stage can be disabled for ablations (benches E2-E5 compare
// stage 1 alone, stage 2 alone and the full pipeline).
#pragma once

#include "mechanisms/mechanism.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"

namespace mobipriv::core {

struct AnonymizerConfig {
  bool enable_speed_smoothing = true;
  bool enable_mixzones = true;
  mech::SpeedSmoothingConfig speed;
  mech::MixZoneConfig mixzone;
};

/// "ours" is its stage flags ("speed+mix", "speed", "mix") plus these two
/// tables: the speed-smoothing and mix-zone keys, each accepted only when
/// its stage runs and printed only when its value is not the default.
inline constexpr util::ParamTable kOursSpeedParams{
    "ours", mech::kSpeedSpacing, mech::kSpeedMinLength};
inline constexpr util::ParamTable kOursMixZoneParams{
    "ours", mech::kMixZoneRadius, mech::kMixZoneWindow,
    mech::kMixZoneMinUsers, mech::kMixZoneSuppress};

/// Per-run pipeline outcome (stage reports + event accounting).
struct PipelineReport {
  std::size_t input_events = 0;
  std::size_t after_smoothing_events = 0;
  std::size_t output_events = 0;
  std::size_t input_traces = 0;
  std::size_t dropped_traces = 0;  ///< suppressed by the min-length rule
  mech::MixZoneReport mixzone;

  [[nodiscard]] std::string ToString() const;
};

class Anonymizer final : public mech::Mechanism {
 public:
  explicit Anonymizer(AnonymizerConfig config = {});

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] const AnonymizerConfig& config() const noexcept {
    return config_;
  }

  /// SoA-native pipeline: stage 1 fills an EventStore via the two-pass
  /// per-trace path, stage 2 consumes that store's view directly.
  [[nodiscard]] model::EventStore ApplyToStore(const model::DatasetView& input,
                                               util::Rng& rng) const override;

  /// ApplyToStore variant that also fills the per-stage report.
  [[nodiscard]] model::EventStore ApplyToStoreWithReport(
      const model::DatasetView& input, util::Rng& rng,
      PipelineReport& report) const;

 private:
  AnonymizerConfig config_;
  mech::SpeedSmoothing speed_;
  mech::MixZone mixzone_;
};

}  // namespace mobipriv::core
