// Multi-target tracking attack (Hoh & Gruteser [5]).
//
// Threat model: the adversary sees the published dataset and tries to follow
// one physical user *through* mix-zones: when a target disappears into a
// zone, the tracker predicts the target's exit position by extrapolating its
// last observed velocity across the zone, then adopts the trace whose entry
// into the world (zone exit) best matches the prediction.
//
// Against an un-mixed publication the prediction trivially matches the same
// trace. After mix-zone swapping, several users exit with plausible
// positions and the tracker is confused with quantifiable probability — the
// metric bench E5 sweeps. This is the "path confusion" adversary the paper
// cites as motivation for swapping.
#pragma once

#include <vector>

#include "geo/point2.h"
#include "geo/projection.h"
#include "mechanisms/mixzone.h"
#include "model/views.h"

namespace mobipriv::attacks {

struct TrackerConfig {
  /// Fixes used to estimate the target's entry velocity.
  std::size_t velocity_window = 3;
  /// A candidate exit must be within this distance of the prediction to be
  /// adopted at all (beyond it the tracker declares the target lost).
  double gate_radius_m = 2000.0;
  /// Longest plausible zone transit; candidate exits later than this after
  /// the target's entry are ignored.
  util::Timestamp max_transit_s = 1800;
};

/// Outcome of tracking one target through one zone occurrence.
struct TrackingOutcome {
  /// The physical user being followed (original identity).
  model::UserId target = model::kInvalidUser;
  /// Published identity that actually carries the target's continuation
  /// after the zone (ground truth for scoring).
  model::UserId truth = model::kInvalidUser;
  /// Published identity the tracker adopted at the exit.
  model::UserId followed = model::kInvalidUser;
  bool lost = false;     ///< no candidate within the gate
  double error_m = 0.0;  ///< prediction error to the adopted exit
};

class MultiTargetTracker {
 public:
  explicit MultiTargetTracker(TrackerConfig config = {});

  /// For every user entering the zone around `center` during the time span
  /// [enter_after, exit_before], predicts the exit and adopts the best
  /// matching published trace. `published` is the anonymized dataset;
  /// `original` provides the pre-zone movement the adversary observed.
  /// Returns one outcome per tracked target.
  [[nodiscard]] std::vector<TrackingOutcome> TrackThroughZone(
      const model::DatasetView& original, const model::DatasetView& published,
      const geo::LocalProjection& projection, geo::Point2 zone_center,
      double zone_radius_m) const;

  /// Confusion rate: fraction of non-lost targets where the adopted
  /// published identity differs from the true continuation identity.
  [[nodiscard]] static double ConfusionRate(
      const std::vector<TrackingOutcome>& outcomes);

 private:
  TrackerConfig config_;
};

}  // namespace mobipriv::attacks
