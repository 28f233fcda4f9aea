#include "privacy/evaluators.h"

#include "privacy/uncertainty.h"
#include "util/string_utils.h"

namespace mobipriv::privacy {

CertificationEvaluator::CertificationEvaluator(CertificationConfig config)
    : config_(config) {}

std::string CertificationEvaluator::Name() const {
  const CertificationConfig defaults;
  std::string params;
  if (config_.max_spacing_deviation != defaults.max_spacing_deviation) {
    params += ",spacing=" + util::FormatDouble(config_.max_spacing_deviation);
  }
  if (config_.max_interval_deviation_s !=
      defaults.max_interval_deviation_s) {
    params += ",interval=" +
              util::FormatDouble(config_.max_interval_deviation_s, 1) + "s";
  }
  if (config_.min_events_checked != defaults.min_events_checked) {
    params += ",min_events=" + std::to_string(config_.min_events_checked);
  }
  if (params.empty()) return "certification";
  return "certification[" + params.substr(1) + "]";
}

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

UncertaintyEvaluator::UncertaintyEvaluator(mech::MixZoneConfig config)
    : config_(config) {}

std::string UncertaintyEvaluator::Name() const {
  const std::string params = mech::MixZoneSpecParams(config_);
  if (params.empty()) return "uncertainty";
  return "uncertainty[" + params.substr(1) + "]";
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
