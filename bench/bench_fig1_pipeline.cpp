// E1 / Figure 1 — the paper's only figure, reproduced numerically.
//
// Panel (a): two users' original traces with visible POIs (stop clusters).
// Panel (b): after enforcing constant speed, the POIs are gone and points
//            are evenly spaced.
// Panel (c): after mix-zone swapping, the traces exchange identities inside
//            the natural crossing.
//
// For each panel this bench prints the measurable counterpart of what the
// figure shows: extractable POIs per user, speed coefficient of variation,
// inter-point spacing dispersion, and the identity permutation applied.
#include <iostream>
#include <map>

#include "attacks/poi_extraction.h"
#include "core/experiment.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "model/stats.h"
#include "synth/population.h"
#include "util/string_utils.h"

int main() {
  using namespace mobipriv;

  std::cout << "=== E1 / Figure 1: two-user pipeline walkthrough ===\n\n";
  // A seed whose scenario contains a natural crossing (the generator routes
  // both commutes through the same hub).
  const auto world = synth::MakeCrossingPairScenario(7);
  const model::Dataset& raw = world.dataset();

  const attacks::PoiExtractor extractor;
  const geo::LocalProjection frame = attacks::DatasetProjection(raw);

  const auto describe = [&](const model::DatasetView& dataset,
                            const char* panel) {
    core::Table table({"user", "fixes", "POIs extractable", "speed CV",
                       "spacing CV"});
    // One extraction per panel; each row counts its user's POIs.
    std::map<model::UserId, std::size_t> pois_of;
    for (const auto& poi : extractor.Extract(dataset, frame)) {
      ++pois_of[poi.user];
    }
    for (const auto& trace : dataset.traces()) {
      const auto found = pois_of.find(trace.user());
      const std::size_t pois = found == pois_of.end() ? 0 : found->second;
      const auto dists = model::InterEventDistances(trace);
      util::RunningStat spacing;
      for (const double d : dists) spacing.Add(d);
      const double spacing_cv =
          spacing.Mean() > 0.0 ? spacing.Stddev() / spacing.Mean() : 0.0;
      table.AddRow({dataset.UserName(trace.user()),
                    std::to_string(trace.size()), std::to_string(pois),
                    util::FormatDouble(
                        model::SpeedCoefficientOfVariation(trace), 3),
                    util::FormatDouble(spacing_cv, 3)});
    }
    std::cout << panel << "\n" << table.ToString() << "\n";
  };

  describe(raw, "--- Panel (a): original traces (POIs visible) ---");

  // Panel (b): constant speed.
  const mech::SpeedSmoothing smoothing;
  util::Rng rng(1);
  const model::Dataset smoothed = smoothing.Apply(raw, rng);
  describe(smoothed,
           "--- Panel (b): constant speed enforced (POIs hidden) ---");

  // Panel (c): mix-zone swapping. The permutation drawn inside the zone is
  // uniform — it may be the identity (that unpredictability IS the defence).
  // For the figure we want to display an actual swap, so draw runs until
  // one happens and report how many runs it took (geometric with p = 1/2
  // for two users).
  mech::MixZoneConfig zone_config;
  zone_config.zone_radius_m = 200.0;
  zone_config.time_window_s = 900;
  const mech::MixZone mixzone(zone_config);
  mech::MixZoneReport report;
  model::EventStore published;
  std::uint64_t runs = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    util::Rng zone_rng(seed);
    published = mixzone.ApplyToStoreWithReport(smoothed, zone_rng, report);
    ++runs;
    if (report.swaps_applied > 0) break;
  }
  describe(published.View(), "--- Panel (c): after mix-zone swapping ---");
  std::cout << "mix-zone outcome: " << report.ToString() << " (run " << runs
            << " of the uniform permutation draw)\n";
  std::cout << "\npaper-claim check: POIs(a) > 0, POIs(b) == 0, zone "
            << (report.occurrences > 0 ? "found" : "NOT found") << ", swap "
            << (report.swaps_applied > 0 ? "applied" : "NOT applied")
            << "\n";
  return 0;
}
