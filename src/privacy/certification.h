// Publication certification: before releasing a dataset, a publisher checks
// that the mechanism's guarantees actually hold on the bytes about to go
// out. This is the operational counterpart of the paper's Section III
// guarantee — "equal duration and distance between two consecutive points"
// — plus negative checks (no residual stop clusters).
//
// The certifier is mechanism-independent: it inspects only the published
// dataset, so it also catches integration bugs (e.g. accidentally shipping
// the raw dataset).
#pragma once

#include <string>
#include <vector>

#include "attacks/poi_extraction.h"
#include "model/views.h"

namespace mobipriv::privacy {

struct CertificationConfig {
  /// Maximum tolerated relative deviation of any inter-point distance from
  /// the trace's median spacing.
  double max_spacing_deviation = 0.02;
  /// Maximum tolerated absolute deviation of any inter-point interval from
  /// the trace's median interval, seconds (integer-second rounding).
  double max_interval_deviation_s = 2.0;
  /// Stop-cluster screening: the published data must yield zero stays under
  /// this extractor configuration.
  attacks::PoiExtractionConfig screening;
  /// Traces with fewer events than this are exempt from the spacing checks
  /// (a 2-point trace is trivially constant-speed).
  std::size_t min_events_checked = 4;
};

/// One violated trace with the reason.
struct CertificationViolation {
  enum class Kind {
    kNonUniformSpacing,
    kNonUniformInterval,
    kResidualStay,
    kUnorderedTimestamps,
  };
  Kind kind;
  std::size_t trace_index = 0;
  model::UserId user = model::kInvalidUser;
  double magnitude = 0.0;  ///< deviation ratio / seconds / stay dwell
  [[nodiscard]] std::string ToString() const;
};

struct CertificationReport {
  std::size_t traces_checked = 0;
  std::size_t traces_exempt = 0;
  std::vector<CertificationViolation> violations;

  [[nodiscard]] bool Certified() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string ToString() const;
};

/// Runs every check against the published dataset. Stays are screened in
/// the published dataset's own frame (DatasetProjection(published)).
[[nodiscard]] CertificationReport CertifyConstantSpeed(
    const model::DatasetView& published,
    const CertificationConfig& config = {});

}  // namespace mobipriv::privacy
