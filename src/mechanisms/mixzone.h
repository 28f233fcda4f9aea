// Stage 2 of the paper's solution (Section III): mix-zone trajectory
// swapping.
//
// When users naturally meet (public transport, malls, workplaces), the
// meeting area becomes a mix-zone in the sense of Beresford & Stajano [6]:
// a well-delimited disc in which nobody is tracked. The mechanism
//   1. *detects* natural meetings (encounters) — events of distinct users
//      within `zone_radius_m` of each other within `time_window_s`;
//   2. clusters those encounters into zones (disc of radius
//      zone_radius_m), first-fit in one fixed encounter order. A
//      parallel pass counts the encounters (the report's count) and marks
//      the events that have one; a serial first-fit pass then places
//      zones over the marked events in that order and stores no
//      encounter;
//   3. for each zone *occurrence* (a maximal episode during which >= 2 users
//      are simultaneously inside), suppresses every in-zone event and
//      applies a uniformly random permutation to the participants'
//      identities from their zone exit onwards.
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

/// One detected zone with its occurrences (for reports and tests).
struct MixZoneInfo {
  geo::Point2 center;  ///< planar, in the dataset projection frame
  double radius_m = 0.0;
  std::size_t occurrences = 0;
  std::size_t max_anonymity_set = 0;  ///< most users mixed in one occurrence
};

/// One zone episode that actually mixed (for uncertainty accounting).
struct OccurrenceInfo {
  std::size_t zone_index = 0;               ///< into MixZoneReport::zones
  std::vector<model::UserId> users;         ///< distinct participants
  bool swapped = false;                     ///< non-identity permutation drawn
};

/// Aggregate outcome of one MixZone application.
struct MixZoneReport {
  std::vector<MixZoneInfo> zones;
  std::vector<OccurrenceInfo> occurrence_details;
  std::size_t encounters = 0;         ///< raw co-location pairs found
  std::size_t occurrences = 0;        ///< zone episodes with >= min_users
  std::size_t swaps_applied = 0;      ///< non-identity permutations drawn
  std::size_t suppressed_events = 0;  ///< points removed inside zones
  std::size_t total_events = 0;       ///< events in the input dataset
  std::vector<std::size_t> anonymity_set_sizes;  ///< one per occurrence

  [[nodiscard]] double SuppressionRatio() const noexcept {
    return total_events == 0
               ? 0.0
               : static_cast<double>(suppressed_events) /
                     static_cast<double>(total_events);
  }
  [[nodiscard]] std::string ToString() const;
};

class MixZone final : public Mechanism {
 public:
  explicit MixZone(MixZoneConfig config = {});

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] const MixZoneConfig& config() const noexcept {
    return config_;
  }

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

  /// Runs the encounter count only (projection, the time-ordered cell
  /// grid and the parallel count pass that also fills
  /// MixZoneReport::encounters) and returns it. Cheap instrumentation
  /// surface for benchmarks and tuning — no rng, no zone placement, no
  /// output assembly.
  [[nodiscard]] std::size_t CountEncounters(
      const model::DatasetView& input) const;

 private:
  MixZoneConfig config_;
};

}  // namespace mobipriv::mech
