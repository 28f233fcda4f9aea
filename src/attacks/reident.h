// Re-identification (user linkage) attack, the second threat of Section III.
//
// Threat model: the adversary holds an *identified* training period (e.g.
// data leaked or published earlier with identities) and receives the
// anonymized publication of a later period under fresh pseudonyms. For each
// anonymized trace the adversary extracts a mobility profile — the set of
// POIs — and links it to the known user whose profile is closest. This is
// the POI-based attack of Gambs et al. [1]: home/work pairs are almost
// unique, so raw traces re-identify with high accuracy.
//
// Profile distance: symmetric mean nearest-POI distance (a Hausdorff-style
// average), robust to differing POI counts.
#pragma once

#include <map>
#include <vector>

#include "attacks/poi_extraction.h"
#include "model/dataset.h"

namespace mobipriv::attacks {

/// A user's mobility profile: POI centroids weighted by dwell time.
struct MobilityProfile {
  model::UserId user = model::kInvalidUser;
  std::vector<geo::Point2> pois;
  std::vector<double> weights;  ///< parallel to pois (dwell seconds)
};

struct ReidentConfig {
  PoiExtractionConfig poi;  ///< extractor used on both periods
  /// Profiles with no POI at all cannot be linked; the attack counts them
  /// as failures (the defender's ideal outcome).
  bool count_unlinkable_as_failure = true;
};

/// Result of linking one anonymized trace.
struct LinkResult {
  model::UserId true_user = model::kInvalidUser;
  model::UserId predicted_user = model::kInvalidUser;
  double distance = 0.0;  ///< profile distance to the predicted user
  bool linkable = false;  ///< false when no POIs could be extracted
};

class ReidentificationAttack {
 public:
  explicit ReidentificationAttack(ReidentConfig config = {});

  /// Builds identified profiles from the training dataset (one profile per
  /// user, POIs pooled over all the user's traces). The same `projection`
  /// must be used for BuildProfiles and Attack so planar frames agree.
  [[nodiscard]] std::vector<MobilityProfile> BuildProfiles(
      const model::DatasetView& training,
      const geo::LocalProjection& projection) const;

  /// Symmetric mean nearest-neighbour distance between two POI sets.
  /// Infinity when either set is empty.
  [[nodiscard]] static double ProfileDistance(const MobilityProfile& a,
                                              const MobilityProfile& b);

  /// Links every trace of the anonymized dataset against the profiles.
  /// Both datasets must use the same user-id space (the synthetic world
  /// guarantees this); the anonymized trace's user id is the hidden truth
  /// being predicted, never an attack input.
  [[nodiscard]] std::vector<LinkResult> Attack(
      const std::vector<MobilityProfile>& profiles,
      const model::DatasetView& anonymized,
      const geo::LocalProjection& projection) const;

  /// Fraction of traces correctly linked (unlinkable counted per config).
  [[nodiscard]] static double Accuracy(const std::vector<LinkResult>& results,
                                       bool count_unlinkable_as_failure = true);

 private:
  ReidentConfig config_;
};

}  // namespace mobipriv::attacks
