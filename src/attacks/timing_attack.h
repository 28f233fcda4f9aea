// Mix-zone timing attack (the de-anonymization adversary of Beresford &
// Stajano [6]): entries and exits of a mix-zone are observable; if transit
// times through the zone are predictable, the adversary matches each exit
// to the entry whose (exit_time - entry_time) best fits the typical
// transit-time distribution — no geometry needed.
//
// The attack builds a transit-time model from the zone's own episode
// (median pairwise transit) and scores all entry/exit bipartite matchings
// greedily. It complements the velocity-extrapolation tracker: together
// they bound the realistic linking power against stage 2, and the bench
// shows how anonymity-set size and transit-time variance drive both.
#pragma once

#include <vector>

#include "geo/point2.h"
#include "geo/projection.h"
#include "model/views.h"

namespace mobipriv::attacks {

/// One observed zone crossing of a published pseudonym stream: the stream
/// shows a suppressed hole across the zone — its last fix before the hole
/// is an *entry* observation, its first fix after is an *exit* observation.
/// After a swap the two halves belong to different physical users; the
/// `true_exit` field records which pseudonym's exit actually continues the
/// physical user who made this entry (ground truth for scoring only).
struct ZoneCrossing {
  model::UserId entry_pseudonym = model::kInvalidUser;
  util::Timestamp entry_time = 0;
  util::Timestamp exit_time = 0;  ///< exit observation of the same stream
  model::UserId true_exit = model::kInvalidUser;
};

struct TimingAttackConfig {
  /// Exits later than this after an entry are not considered candidates.
  util::Timestamp max_transit_s = 3600;
};

struct TimingMatch {
  model::UserId entry_pseudonym = model::kInvalidUser;
  model::UserId matched_exit = model::kInvalidUser;  ///< attack's answer
  model::UserId true_exit = model::kInvalidUser;     ///< ground truth
  double confidence = 0.0;  ///< 1 / (1 + |transit - typical|), heuristic
};

class TimingAttack {
 public:
  explicit TimingAttack(TimingAttackConfig config = {});

  /// Observes entries/exits of `published` around the zone disc and fills
  /// the ground-truth continuation from `original` (which published
  /// pseudonym carries each entering physical user onward).
  [[nodiscard]] std::vector<ZoneCrossing> ObserveCrossings(
      const model::DatasetView& original, const model::DatasetView& published,
      const geo::LocalProjection& projection, geo::Point2 zone_center,
      double zone_radius_m) const;

  /// Greedy minimum-deviation matching of entries to exits under the
  /// typical (median) transit time of the episode.
  [[nodiscard]] std::vector<TimingMatch> Match(
      std::vector<ZoneCrossing> crossings) const;

  /// Fraction of matches where the attack's exit equals the true exit.
  [[nodiscard]] static double Accuracy(
      const std::vector<TimingMatch>& matches);

 private:
  TimingAttackConfig config_;
};

}  // namespace mobipriv::attacks
