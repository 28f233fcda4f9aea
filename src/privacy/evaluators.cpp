#include "privacy/evaluators.h"

#include "model/columnar_file.h"
#include "privacy/uncertainty.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace mobipriv::privacy {
namespace {

double TotalBits(const mech::MixZoneReport& report) {
  double bits = 0.0;
  for (const std::size_t size : report.anonymity_set_sizes) {
    bits += AnonymitySetEntropyBits(size);
  }
  return bits;
}

}  // namespace

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
  const mech::MixZoneConfig defaults;
  std::string params;
  if (config_.zone_radius_m != defaults.zone_radius_m) {
    params += ",r=" + util::FormatDouble(config_.zone_radius_m, 0) + "m";
  }
  if (config_.time_window_s != defaults.time_window_s) {
    params += ",w=" + std::to_string(config_.time_window_s) + "s";
  }
  if (config_.min_users != defaults.min_users) {
    params += ",min_users=" + std::to_string(config_.min_users);
  }
  if (params.empty()) return "uncertainty";
  return "uncertainty[" + params.substr(1) + "]";
}

std::vector<core::MetricValue> UncertaintyEvaluator::Evaluate(
    const core::EvalInput& input) const {
  const mech::MixZone detector(config_);
  // The detection pass is deterministic; the rng only feeds the identity
  // permutations of the (discarded) mixed output, so any stream works —
  // derive one from the cell seed and this evaluator's name to keep the
  // call reproducible and independent of sibling evaluators.
  const std::string name = Name();
  const std::uint64_t name_hash = model::Fnv1a64(name.data(), name.size());

  mech::MixZoneReport potential;
  util::Rng original_rng(util::DeriveStreamSeed(input.seed, name_hash, 0));
  (void)detector.ApplyToStoreWithReport(input.original, original_rng,
                                        potential);
  mech::MixZoneReport residual;
  util::Rng published_rng(util::DeriveStreamSeed(input.seed, name_hash, 1));
  (void)detector.ApplyToStoreWithReport(input.published, published_rng,
                                        residual);
  return {
      {"mix_potential_bits", TotalBits(potential)},
      {"mix_potential_occurrences",
       static_cast<double>(potential.occurrences)},
      {"mix_residual_bits", TotalBits(residual)},
      {"mix_residual_occurrences",
       static_cast<double>(residual.occurrences)},
  };
}

}  // namespace mobipriv::privacy
