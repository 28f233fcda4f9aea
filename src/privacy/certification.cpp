#include "privacy/certification.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "model/stats.h"
#include "util/statistics.h"

namespace mobipriv::privacy {
namespace {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return util::PercentileSorted(values, 0.5);
}

const char* KindName(CertificationViolation::Kind kind) {
  switch (kind) {
    case CertificationViolation::Kind::kNonUniformSpacing:
      return "non-uniform spacing";
    case CertificationViolation::Kind::kNonUniformInterval:
      return "non-uniform interval";
    case CertificationViolation::Kind::kResidualStay:
      return "residual stay";
    case CertificationViolation::Kind::kUnorderedTimestamps:
      return "unordered timestamps";
  }
  return "?";
}

}  // namespace

std::string CertificationViolation::ToString() const {
  std::ostringstream os;
  os << KindName(kind) << " in trace " << trace_index << " (user " << user
     << "), magnitude " << magnitude;
  return os.str();
}

std::string CertificationReport::ToString() const {
  std::ostringstream os;
  os << (Certified() ? "CERTIFIED" : "REJECTED") << ": checked "
     << traces_checked << " traces (" << traces_exempt << " exempt), "
     << violations.size() << " violation(s)";
  for (std::size_t i = 0; i < std::min<std::size_t>(violations.size(), 10);
       ++i) {
    os << "\n  " << violations[i].ToString();
  }
  if (violations.size() > 10) {
    os << "\n  ... and " << violations.size() - 10 << " more";
  }
  return os.str();
}

CertificationReport CertifyConstantSpeed(const model::DatasetView& published,
                                         const CertificationConfig& config) {
  CertificationReport report;
  const attacks::PoiExtractor screener(config.screening);
  const auto projection = attacks::DatasetProjection(published);

  for (std::size_t i = 0; i < published.TraceCount(); ++i) {
    const model::TraceView& trace = published.trace(i);
    if (!trace.IsTimeOrdered()) {
      report.violations.push_back(
          {CertificationViolation::Kind::kUnorderedTimestamps, i,
           trace.user(), 0.0});
      ++report.traces_checked;
      continue;
    }
    if (trace.size() < config.min_events_checked) {
      ++report.traces_exempt;
      continue;
    }
    ++report.traces_checked;

    // Spacing uniformity relative to the trace's own median spacing.
    const auto distances = model::InterEventDistances(trace);
    const double median_spacing = Median(distances);
    if (median_spacing > 0.0) {
      double worst = 0.0;
      for (const double d : distances) {
        worst = std::max(worst,
                         std::abs(d - median_spacing) / median_spacing);
      }
      if (worst > config.max_spacing_deviation) {
        report.violations.push_back(
            {CertificationViolation::Kind::kNonUniformSpacing, i,
             trace.user(), worst});
      }
    }

    // Interval uniformity (absolute seconds, covers rounding).
    const auto intervals = model::InterEventIntervals(trace);
    const double median_interval = Median(intervals);
    double worst_interval = 0.0;
    for (const double dt : intervals) {
      worst_interval = std::max(worst_interval,
                                std::abs(dt - median_interval));
    }
    if (worst_interval > config.max_interval_deviation_s) {
      report.violations.push_back(
          {CertificationViolation::Kind::kNonUniformInterval, i,
           trace.user(), worst_interval});
    }

    // Negative screening: no residual stop clusters.
    for (const auto& stay : screener.ExtractStays(trace, projection)) {
      report.violations.push_back(
          {CertificationViolation::Kind::kResidualStay, i, trace.user(),
           static_cast<double>(stay.departure - stay.arrival)});
    }
  }
  return report;
}

}  // namespace mobipriv::privacy
