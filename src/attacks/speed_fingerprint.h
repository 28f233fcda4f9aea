// Speed-fingerprint linkage: an attack aimed specifically at the paper's
// own mechanism. Constant-speed publishing erases WHERE a user stopped but
// publishes one number per trace — its constant speed = chord-length /
// duration — which could fingerprint users with unusual travel patterns
// (the long-commuter vs the around-the-corner worker). The attack profiles
// each known user's distribution of published speeds and links anonymized
// traces to the nearest profile (z-score under the profile's spread).
//
// This is an honest stress test of the mechanism's residual leakage; the
// bench shows how much (little) it buys an adversary compared to POI
// linkage on raw data.
#pragma once

#include <vector>

#include "model/views.h"

namespace mobipriv::attacks {

/// Per-user speed profile (mean/stddev of per-trace average speeds).
struct SpeedProfileModel {
  model::UserId user = model::kInvalidUser;
  double mean_mps = 0.0;
  double stddev_mps = 0.0;
  std::size_t traces = 0;
};

struct SpeedLinkResult {
  model::UserId true_user = model::kInvalidUser;
  model::UserId predicted_user = model::kInvalidUser;
  double score = 0.0;  ///< |z| distance to the predicted profile
};

class SpeedFingerprintAttack {
 public:
  /// Builds per-user profiles from identified training data. Traces with
  /// zero duration or length are skipped.
  [[nodiscard]] std::vector<SpeedProfileModel> BuildProfiles(
      const model::DatasetView& training) const;

  /// Links each anonymized trace to the profile with the smallest
  /// |speed - mean| / max(stddev, floor).
  [[nodiscard]] std::vector<SpeedLinkResult> Attack(
      const std::vector<SpeedProfileModel>& profiles,
      const model::DatasetView& anonymized) const;

  [[nodiscard]] static double Accuracy(
      const std::vector<SpeedLinkResult>& results);

 private:
  static constexpr double kStddevFloor = 0.2;  // m/s
};

}  // namespace mobipriv::attacks
