// Stage 2 of the paper's solution (Section III): mix-zone trajectory
// swapping.
//
// When users naturally meet (public transport, malls, workplaces), the
// meeting area becomes a mix-zone in the sense of Beresford & Stajano [6]:
// a well-delimited disc in which nobody is tracked. The mechanism runs two
// passes. Detection (MixZone::Detect) draws no randomness:
//   1. a parallel pass counts encounters — events of distinct users within
//      `zone_radius_m` and `time_window_s` of each other, in adjacent cells
//      of a zone_radius_m grid — and marks the lower-id event of each.
//      Every cell tests each pair once: within its own time-ordered slice,
//      and against the four cells after it in (dx, dy) row-major order;
//   2. a serial first-fit pass over the marked events places zones (discs
//      of radius zone_radius_m) in one fixed encounter order — event id;
//      neighbour cell in (dx, dy) row-major order; partner id — storing no
//      encounter. A midpoint becomes a centre unless an earlier centre lies
//      within the radius. Centres only accumulate, so events, neighbour
//      cells and midpoints that the centres already near an event reject
//      are skipped, with margins that keep the placement exact
//      (docs/PERFORMANCE.md, "Mix-zone detection");
//   3. in-zone fixes form passages, grouped into *occurrences* (passages
//      that overlap once dilated by the time window) of >= min_users
//      distinct users.
// Publication then takes the occurrences in the order they end:
//   4. it suppresses every in-zone event and permutes the participants'
//      identities uniformly at random from their zone exit onwards;
//   5. it cuts traces at the identity switches and stitches each
//      identity's zone-severed segments back together.
// The identity permutation may be the identity permutation — exactly the
// point: an adversary observing entries and exits cannot tell whether a
// swap happened. Zones are never fabricated: only naturally crossing paths
// are used, so no location is distorted (the paper's utility goal); the only
// utility loss is the suppressed in-zone points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/point2.h"
#include "geo/projection.h"
#include "mechanisms/mechanism.h"
#include "util/params.h"

namespace mobipriv::mech {

struct MixZoneConfig {
  /// Zone disc radius, metres ("reasonably small" per the paper).
  double zone_radius_m = 150.0;
  /// Two users' events count as an encounter when within zone_radius_m and
  /// their timestamps differ by at most this window.
  util::Timestamp time_window_s = 600;
  /// Zones need at least this many distinct users per occurrence to mix
  /// (the anonymity-set floor; 2 is the paper's implicit minimum).
  std::size_t min_users = 2;
  /// If false, identities are permuted but in-zone points are kept
  /// (ablation knob; leaks the meeting location — see bench E5).
  bool suppress_zone_points = true;
};

/// Spec keys of a mix-zone config, shared by "mixzone", "ours" and the
/// "uncertainty" evaluator.
inline constexpr util::Param kMixZoneRadius{
    "r", &MixZoneConfig::zone_radius_m, "m", util::kPositive};
inline constexpr util::Param kMixZoneWindow{
    "w", &MixZoneConfig::time_window_s, "s", util::kPositive};
inline constexpr util::Param kMixZoneMinUsers{
    "min_users", &MixZoneConfig::min_users, "", util::AtLeast(2)};
inline constexpr util::Param kMixZoneSuppress{
    "suppress", &MixZoneConfig::suppress_zone_points};
inline constexpr util::ParamTable kMixZoneParams{
    "mixzone", kMixZoneRadius.Always(), kMixZoneWindow.Always(),
    kMixZoneMinUsers, kMixZoneSuppress};

/// One detected zone with its occurrences (for reports and tests).
struct MixZoneInfo {
  geo::Point2 center;  ///< planar, in the dataset projection frame
  double radius_m = 0.0;
  std::size_t occurrences = 0;
  /// Most distinct users in one occurrence (its largest anonymity set).
  std::size_t max_anonymity_set = 0;
};

/// One zone occurrence. Its anonymity set is `users`, the count the
/// min_users floor gates on and privacy::MeasureMixingUncertainty scores.
struct OccurrenceInfo {
  std::size_t zone_index = 0;               ///< into MixZoneReport::zones
  std::vector<model::UserId> users;         ///< distinct participants
  bool swapped = false;                     ///< non-identity permutation drawn
};

/// Aggregate outcome of one MixZone application. Detection fills the
/// zones, occurrences, encounters and total_events; publication fills
/// swaps_applied, suppressed_events and OccurrenceInfo::swapped.
struct MixZoneReport {
  std::vector<MixZoneInfo> zones;     ///< only zones with an occurrence
  /// One per occurrence, by latest zone exit (the permutation order).
  std::vector<OccurrenceInfo> occurrence_details;
  std::size_t encounters = 0;         ///< raw co-location pairs found
  std::size_t occurrences = 0;        ///< zone episodes with >= min_users
  std::size_t swaps_applied = 0;      ///< non-identity permutations drawn
  std::size_t suppressed_events = 0;  ///< points removed inside zones
  std::size_t total_events = 0;       ///< events in the input dataset

  [[nodiscard]] double SuppressionRatio() const noexcept {
    return total_events == 0
               ? 0.0
               : static_cast<double>(suppressed_events) /
                     static_cast<double>(total_events);
  }
  [[nodiscard]] std::string ToString() const;
};

class MixZone final : public util::Configured<Mechanism, kMixZoneParams> {
 public:
  explicit MixZone(MixZoneConfig config = {});

  /// Detection, clustering and reassembly run off the view's columns and
  /// the suppressed/cut traces are assembled directly into EventStore
  /// columns — no AoS dataset and no per-trace Event vectors anywhere
  /// between input view and store (the scenario engine's
  /// zero-TraceCopyCount contract).
  [[nodiscard]] model::EventStore ApplyToStore(const model::DatasetView& input,
                                               util::Rng& rng) const override;

  /// ApplyToStore variant that also returns the detection/swap report.
  [[nodiscard]] model::EventStore ApplyToStoreWithReport(
      const model::DatasetView& input, util::Rng& rng,
      MixZoneReport& report) const;

  /// Runs the detection pass only (no rng) and returns the report
  /// ApplyToStoreWithReport gives, minus publication: swaps_applied,
  /// suppressed_events and every OccurrenceInfo::swapped stay 0.
  [[nodiscard]] MixZoneReport Detect(const model::DatasetView& input) const;

  /// Runs the encounter count only (projection, the time-ordered cell
  /// grid and the parallel count pass that also fills
  /// MixZoneReport::encounters) and returns it. Cheap instrumentation
  /// surface for benchmarks and tuning — no rng, no zone placement, no
  /// output assembly.
  [[nodiscard]] std::size_t CountEncounters(
      const model::DatasetView& input) const;
};

}  // namespace mobipriv::mech
