// E5 — mix-zone parameter sweep.
//
// Section III: "the only utility loss comes from the fact we suppress
// points inside mix-zones, but this should be a reasonable degradation as
// long as mix-zones remain reasonably small." This bench sweeps the zone
// radius and time window over a crossing-rich population and reports, per
// setting: zones found, occurrences, mean anonymity-set size, suppression
// ratio (the utility cost), swap rate, and the multi-target tracker's
// confusion (the privacy gain). It also ablates suppress_zone_points.
#include <iostream>

#include "attacks/timing_attack.h"
#include "attacks/tracker.h"
#include "core/experiment.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "privacy/uncertainty.h"
#include "synth/population.h"
#include "util/statistics.h"
#include "util/string_utils.h"

namespace {

constexpr std::uint64_t kSeed = 1123;

}  // namespace

int main() {
  using namespace mobipriv;

  std::cout << "=== E5: mix-zone radius/window sweep ===\n\n";
  synth::PopulationConfig population;
  population.agents = 30;
  population.days = 1;
  population.seed = kSeed;
  const synth::SyntheticWorld world(population);
  const model::Dataset& dataset = world.dataset();
  const geo::LocalProjection frame(dataset.BoundingBox().Center());

  core::Table table({"radius (m)", "window (s)", "zones", "occurrences",
                     "mean anon set", "suppressed %", "swaps",
                     "tracker confusion", "timing acc", "entropy bits"});
  for (const double radius : {50.0, 100.0, 150.0, 250.0, 400.0}) {
    for (const util::Timestamp window : {300L, 600L, 1200L}) {
      mech::MixZoneConfig config;
      config.zone_radius_m = radius;
      config.time_window_s = window;
      const mech::MixZone mixzone(config);
      util::Rng rng(kSeed + 1);
      mech::MixZoneReport report;
      const model::EventStore published =
          mixzone.ApplyToStoreWithReport(dataset, rng, report);

      // Tracker confusion and timing-attack accuracy pooled over zones.
      const attacks::MultiTargetTracker tracker;
      const attacks::TimingAttack timing;
      std::vector<attacks::TrackingOutcome> outcomes;
      std::vector<attacks::TimingMatch> timing_matches;
      for (const auto& zone : report.zones) {
        const auto zone_outcomes = tracker.TrackThroughZone(
            dataset, published.View(), frame, zone.center, radius);
        outcomes.insert(outcomes.end(), zone_outcomes.begin(),
                        zone_outcomes.end());
        auto crossings = timing.ObserveCrossings(
            dataset, published.View(), frame, zone.center, radius);
        const auto matches = timing.Match(std::move(crossings));
        timing_matches.insert(timing_matches.end(), matches.begin(),
                              matches.end());
      }
      const auto uncertainty =
          privacy::MeasureMixingUncertainty(dataset, report);
      std::vector<double> anon_sizes;
      for (const auto& occurrence : report.occurrence_details) {
        anon_sizes.push_back(static_cast<double>(occurrence.users.size()));
      }
      table.AddRow(
          {util::FormatDouble(radius, 0), std::to_string(window),
           std::to_string(report.zones.size()),
           std::to_string(report.occurrences),
           util::FormatDouble(util::Mean(anon_sizes), 2),
           util::FormatDouble(100.0 * report.SuppressionRatio(), 2),
           std::to_string(report.swaps_applied),
           util::FormatDouble(
               attacks::MultiTargetTracker::ConfusionRate(outcomes), 3),
           util::FormatDouble(attacks::TimingAttack::Accuracy(timing_matches),
                              3),
           util::FormatDouble(uncertainty.total_bits, 1)});
    }
  }
  std::cout << table.ToString() << "\n";

  // ---- Ablation: keep in-zone points (suppress_zone_points = false). ----
  std::cout << "--- ablation: keeping in-zone points ---\n";
  core::Table ablation({"suppress", "suppressed %", "swaps", "zones"});
  for (const bool suppress : {true, false}) {
    mech::MixZoneConfig config;
    config.zone_radius_m = 150.0;
    config.suppress_zone_points = suppress;
    const mech::MixZone mixzone(config);
    util::Rng rng(kSeed + 2);
    mech::MixZoneReport report;
    (void)mixzone.ApplyToStoreWithReport(dataset, rng, report);
    ablation.AddRow({suppress ? "yes" : "no",
                     util::FormatDouble(100.0 * report.SuppressionRatio(), 2),
                     std::to_string(report.swaps_applied),
                     std::to_string(report.zones.size())});
  }
  std::cout << ablation.ToString()
            << "\nexpected shape: suppression cost grows with radius "
               "(\"reasonably small\" zones keep it to a few %); confusion "
               "appears as soon as zones with >= 2 users exist.\n\n";

  // ---- Timing attack: raw vs constant-speed input. ----
  // On raw data, transit times through a zone are heterogeneous (a dweller
  // vs a crosser), so entry/exit timing alone re-links pseudonyms — the
  // classic mix-zone weakness. Stage 1 homogenizes speeds, which is an
  // unadvertised synergy of the paper's two stages.
  std::cout << "--- timing attack vs pipeline stage ---\n";
  core::Table timing_table({"input", "crossings observed", "timing acc"});
  const mech::MixZoneConfig timing_config;  // defaults: 150 m, 600 s
  const mech::MixZone timing_zone(timing_config);
  const attacks::TimingAttack timing_attack;
  const auto timing_row = [&](const std::string& name,
                              const model::Dataset& input) {
    util::Rng rng(kSeed + 9);
    mech::MixZoneReport report;
    const model::EventStore published =
        timing_zone.ApplyToStoreWithReport(input, rng, report);
    std::vector<attacks::TimingMatch> matches;
    for (const auto& zone : report.zones) {
      auto crossings = timing_attack.ObserveCrossings(
          input, published.View(), frame, zone.center,
          timing_config.zone_radius_m);
      const auto zone_matches = timing_attack.Match(std::move(crossings));
      matches.insert(matches.end(), zone_matches.begin(),
                     zone_matches.end());
    }
    timing_table.AddRow(
        {name, std::to_string(matches.size()),
         util::FormatDouble(attacks::TimingAttack::Accuracy(matches), 3)});
  };
  timing_row("raw traces", dataset);
  {
    const mech::SpeedSmoothing smoothing;
    util::Rng rng(kSeed + 10);
    timing_row("constant-speed traces", smoothing.Apply(dataset, rng));
  }
  std::cout << timing_table.ToString()
            << "\nexpected shape: timing re-links nearly everything on raw "
               "zones (heterogeneous transits) and degrades on constant-"
               "speed input.\n";
  return 0;
}
