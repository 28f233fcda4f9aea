// Stage 1 of the paper's solution (Section III): constant-speed enforcement
// by time distortion.
//
// POIs appear in a raw trace as clusters of fixes where the user is
// stationary. Instead of perturbing locations (the classical approach, which
// destroys spatial utility), the trace is transformed so that consecutive
// published points have *equal spatial spacing* and *equal time spacing* —
// i.e. the user appears to move at constant speed from the first to the last
// fix. A stationary period contributes no extra points, so an adversary
// cannot tell a 2-hour picnic from simply passing through the park.
//
// Algorithm per trace:
//   1. project fixes to the local tangent plane;
//   2. resample the trajectory at uniform *chord* spacing `spacing_m`
//      (geo::ChordResample): consecutive published points are exactly
//      `spacing_m` apart, and — crucially — the kilometres of GPS-jitter
//      polyline a user accumulates while dwelling at a POI are absorbed,
//      because the walk only advances when it gets `spacing_m` away from
//      the last published point. A stop therefore contributes no points;
//   3. assign uniformly spaced timestamps spanning the original [t0, t1].
//
// The trailing sub-spacing remainder is trimmed (as in the authors' later
// Promesse system), so the published trace has dist(p_i, p_{i+1}) ==
// spacing_m exactly for every hop, and t_{i+1} - t_i uniform to +-0.5 s
// rounding, i.e. constant speed — the property tests assert both. The
// published trace may therefore end up to one spacing short of the final
// input fix.
#pragma once

#include <optional>

#include "geo/projection.h"
#include "mechanisms/mechanism.h"
#include "util/params.h"

namespace mobipriv::mech {

struct SpeedSmoothingConfig {
  /// Chord spacing between published points, metres. Smaller keeps more
  /// spatial detail but absorbs less jitter; it must exceed the dwell
  /// wander radius at POIs (tens of metres for GPS) for stops to vanish.
  double spacing_m = 100.0;
  /// Drop traces shorter than this many metres instead of publishing a
  /// degenerate 2-point trace (they are almost surely a single POI — the
  /// most privacy-sensitive object there is).
  double min_length_m = 200.0;
};

/// Spec keys, shared by "speed_smoothing" and "ours".
inline constexpr util::Param kSpeedSpacing{
    "eps", &SpeedSmoothingConfig::spacing_m, "m", util::kPositive};
inline constexpr util::Param kSpeedMinLength{
    "min_len", &SpeedSmoothingConfig::min_length_m, "m", util::kNonNegative};
inline constexpr util::ParamTable kSpeedSmoothingParams{
    "speed_smoothing", kSpeedSpacing.Always(), kSpeedMinLength};

class SpeedSmoothing final
    : public util::Configured<PerTraceMechanism, kSpeedSmoothingParams> {
 public:
  explicit SpeedSmoothing(SpeedSmoothingConfig config = {});

  /// Transforms one trace (exposed for direct use and tests). Returns an
  /// empty trace when the input is dropped by the min-length rule.
  [[nodiscard]] model::Trace Smooth(const model::Trace& trace) const;

 protected:
  /// The kernel: projects the view's columns, chord-resamples, and
  /// appends the published fixes — no AoS trace is ever built on this path.
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override;
};

}  // namespace mobipriv::mech
