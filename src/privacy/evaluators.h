// src/privacy wired into the scenario engine: certification and
// mix-zone-uncertainty checks as core::Evaluator implementations, so
// sweep reports carry privacy columns next to utility ones (the paper's
// privacy-utility frontier in one table).
//
// Both evaluators register in the core evaluator registry under the bases
// "certification" and "uncertainty"; their Name()s print only non-default
// parameters (bare base at defaults) and round-trip through
// core::CreateEvaluator like every built-in.
#pragma once

#include "core/evaluator.h"
#include "mechanisms/mixzone.h"
#include "privacy/certification.h"

namespace mobipriv::privacy {

inline constexpr util::ParamTable kCertificationParams{
    "certification",
    util::Param{"spacing", &CertificationConfig::max_spacing_deviation, "",
                util::kNonNegative}
        .Digits(4),
    util::Param{"interval", &CertificationConfig::max_interval_deviation_s,
                "s", util::kNonNegative}
        .Digits(1),
    util::Param{"min_events", &CertificationConfig::min_events_checked}};

/// The mix-zone keys without "suppress": detection never suppresses.
inline constexpr util::ParamTable kUncertaintyParams{
    "uncertainty", mech::kMixZoneRadius, mech::kMixZoneWindow,
    mech::kMixZoneMinUsers};

/// Scores the PUBLISHED dataset against the constant-speed publication
/// certificate (privacy/certification.h). Metrics:
///   cert_certified        1.0 when zero violations, else 0.0
///   cert_violations       violation count
///   cert_violation_ratio  violations / traces checked (0 when none)
class CertificationEvaluator final
    : public util::Configured<core::Evaluator, kCertificationParams> {
 public:
  using Configured::Configured;

  [[nodiscard]] std::vector<core::MetricValue> Evaluate(
      const core::EvalInput& input) const override;
};

/// Scores the mixing uncertainty an adversary faces: runs mix-zone
/// detection (mech::MixZone::Detect, no publication) over the ORIGINAL
/// dataset (the potential — what natural meetings could have provided)
/// and over the PUBLISHED dataset (the residual — meetings still
/// observable after anonymization), and scores each with
/// MeasureMixingUncertainty: log2(k) bits per occurrence whose anonymity
/// set is k distinct users. Metrics:
///   mix_potential_bits / mix_potential_occurrences
///   mix_residual_bits  / mix_residual_occurrences
/// Detection draws no randomness, so the metrics do not depend on the
/// seed. Prepared: the potential.
class UncertaintyEvaluator final
    : public util::Configured<core::PreparedEvaluator, kUncertaintyParams> {
 public:
  using Configured::Configured;

  [[nodiscard]] core::PreparedPtr Prepare(
      const core::EvalInput& input) const override;
  [[nodiscard]] std::vector<core::MetricValue> Score(
      const core::PreparedOriginal& prepared,
      const core::EvalInput& input) const override;
};

}  // namespace mobipriv::privacy
