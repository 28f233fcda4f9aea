#include "attacks/speed_fingerprint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "util/statistics.h"

namespace mobipriv::attacks {
namespace {

/// Average speed of one trace, m/s; nullopt for degenerate traces.
std::optional<double> TraceSpeed(const model::TraceView& trace) {
  if (trace.size() < 2) return std::nullopt;
  const auto duration = trace.Duration();
  if (duration <= 0) return std::nullopt;
  const double length = trace.LengthMeters();
  if (length <= 0.0) return std::nullopt;
  return length / static_cast<double>(duration);
}

}  // namespace

std::vector<SpeedProfileModel> SpeedFingerprintAttack::BuildProfiles(
    const model::DatasetView& training) const {
  std::map<model::UserId, util::RunningStat> stats;
  for (const model::TraceView& trace : training.traces()) {
    if (const auto speed = TraceSpeed(trace)) {
      stats[trace.user()].Add(*speed);
    }
  }
  std::vector<SpeedProfileModel> profiles;
  profiles.reserve(stats.size());
  for (const auto& [user, stat] : stats) {
    profiles.push_back(SpeedProfileModel{user, stat.Mean(), stat.Stddev(),
                                         stat.Count()});
  }
  return profiles;
}

std::vector<SpeedLinkResult> SpeedFingerprintAttack::Attack(
    const std::vector<SpeedProfileModel>& profiles,
    const model::DatasetView& anonymized) const {
  std::vector<SpeedLinkResult> results;
  for (const model::TraceView& trace : anonymized.traces()) {
    const auto speed = TraceSpeed(trace);
    if (!speed) continue;
    SpeedLinkResult result;
    result.true_user = trace.user();
    double best = std::numeric_limits<double>::infinity();
    for (const auto& profile : profiles) {
      const double z = std::abs(*speed - profile.mean_mps) /
                       std::max(profile.stddev_mps, kStddevFloor);
      if (z < best) {
        best = z;
        result.predicted_user = profile.user;
      }
    }
    result.score = best;
    results.push_back(result);
  }
  return results;
}

double SpeedFingerprintAttack::Accuracy(
    const std::vector<SpeedLinkResult>& results) {
  if (results.empty()) return 0.0;
  std::size_t correct = 0;
  for (const auto& r : results) {
    if (r.predicted_user == r.true_user) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(results.size());
}

}  // namespace mobipriv::attacks
