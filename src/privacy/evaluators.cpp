#include "privacy/evaluators.h"

#include "privacy/uncertainty.h"

namespace mobipriv::privacy {

std::vector<core::MetricValue> CertificationEvaluator::Evaluate(
    const core::EvalInput& input) const {
  const CertificationReport report =
      CertifyConstantSpeed(input.published, config_);
  const double checked = static_cast<double>(report.traces_checked);
  return {
      {"cert_certified", report.Certified() ? 1.0 : 0.0},
      {"cert_violations", static_cast<double>(report.violations.size())},
      {"cert_violation_ratio",
       checked == 0.0
           ? 0.0
           : static_cast<double>(report.violations.size()) / checked},
  };
}

core::PreparedPtr UncertaintyEvaluator::Prepare(
    const core::EvalInput& input) const {
  const mech::MixZone detector(config_);
  return core::MakePrepared(MeasureMixingUncertainty(
      input.original, detector.Detect(input.original)));
}

std::vector<core::MetricValue> UncertaintyEvaluator::Score(
    const core::PreparedOriginal& prepared,
    const core::EvalInput& input) const {
  const mech::MixZone detector(config_);
  const auto& potential = core::PreparedAs<UncertaintyReport>(prepared);
  const UncertaintyReport residual = MeasureMixingUncertainty(
      input.published, detector.Detect(input.published));
  return {
      {"mix_potential_bits", potential.total_bits},
      {"mix_potential_occurrences",
       static_cast<double>(potential.occurrences)},
      {"mix_residual_bits", residual.total_bits},
      {"mix_residual_occurrences", static_cast<double>(residual.occurrences)},
  };
}

}  // namespace mobipriv::privacy
