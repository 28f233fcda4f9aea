// End-to-end integration test of the paper's Figure 1 narrative on the
// crossing-pair scenario: every claim of the three panels is asserted
// programmatically, including the actual suffix exchange of panel (c) and
// the downstream effect on the attacks.
#include <gtest/gtest.h>

#include "attacks/poi_extraction.h"
#include "attacks/tracker.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "model/stats.h"
#include "privacy/certification.h"
#include "synth/population.h"

namespace mobipriv {
namespace {

class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test() : world_(synth::MakeCrossingPairScenario(7)) {}
  const synth::SyntheticWorld world_;
};

TEST_F(Figure1Test, PanelA_RawTracesLeakPois) {
  const attacks::PoiExtractor extractor;
  const auto pois = extractor.Extract(world_.dataset());
  // Both users leak at least home and work.
  std::size_t user0 = 0;
  std::size_t user1 = 0;
  for (const auto& poi : pois) {
    (poi.user == 0 ? user0 : user1) += 1;
  }
  EXPECT_GE(user0, 2u);
  EXPECT_GE(user1, 2u);
  // And the raw traces are visibly stop-and-go.
  for (const auto& trace : world_.dataset().traces()) {
    EXPECT_GT(model::SpeedCoefficientOfVariation(trace), 0.5);
  }
}

TEST_F(Figure1Test, PanelB_ConstantSpeedHidesPois) {
  const mech::SpeedSmoothing smoothing;
  util::Rng rng(1);
  const model::Dataset smoothed = smoothing.Apply(world_.dataset(), rng);
  ASSERT_GT(smoothed.TraceCount(), 0u);
  // No POIs extractable.
  const attacks::PoiExtractor extractor;
  EXPECT_TRUE(extractor.Extract(smoothed).empty());
  // Points evenly distributed: near-zero speed and spacing dispersion.
  for (const auto& trace : smoothed.traces()) {
    if (trace.size() < 4) continue;
    EXPECT_LT(model::SpeedCoefficientOfVariation(trace), 0.05);
  }
  // The publication certifier agrees.
  EXPECT_TRUE(privacy::CertifyConstantSpeed(smoothed).Certified());
}

TEST_F(Figure1Test, PanelC_NaturalCrossingBecomesAMixZone) {
  const mech::SpeedSmoothing smoothing;
  util::Rng rng(1);
  const model::Dataset smoothed = smoothing.Apply(world_.dataset(), rng);
  mech::MixZoneConfig config;
  config.zone_radius_m = 200.0;
  config.time_window_s = 900;
  const mech::MixZone mixzone(config);
  mech::MixZoneReport report;
  (void)mixzone.ApplyToStoreWithReport(smoothed, rng, report);
  EXPECT_GE(report.occurrences, 1u);
  // The zone sits near the shared commute hub.
  const geo::Point2 hub = world_.universe()
                              .site(world_.profiles()[0].commute_hub)
                              .position;
  const geo::LocalProjection world_frame = world_.projection();
  const geo::LocalProjection zone_frame(smoothed.BoundingBox().Center());
  bool near_hub = false;
  for (const auto& zone : report.zones) {
    const auto zone_geo = zone_frame.Unproject(zone.center);
    const auto hub_geo = world_frame.Unproject(hub);
    if (geo::HaversineDistance(zone_geo, hub_geo) < 500.0) near_hub = true;
  }
  EXPECT_TRUE(near_hub);
}

TEST_F(Figure1Test, PanelC_SwapExchangesSuffixesWhenDrawn) {
  const mech::SpeedSmoothing smoothing;
  util::Rng rng(1);
  const model::Dataset smoothed = smoothing.Apply(world_.dataset(), rng);
  mech::MixZoneConfig config;
  config.zone_radius_m = 200.0;
  config.time_window_s = 900;
  const mech::MixZone mixzone(config);
  // Find a seed with a swap; geometric in the number of occurrences.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    util::Rng zone_rng(seed);
    mech::MixZoneReport report;
    const model::EventStore published =
        mixzone.ApplyToStoreWithReport(smoothed, zone_rng, report);
    if (report.swaps_applied == 0) continue;
    // Event conservation still holds.
    EXPECT_EQ(published.EventCount() + report.suppressed_events,
              smoothed.EventCount());
    // A swap occurred: at least one swapped occurrence recorded with both
    // users in its anonymity set.
    bool found_swapped = false;
    for (const auto& occurrence : report.occurrence_details) {
      if (occurrence.swapped) {
        found_swapped = true;
        EXPECT_EQ(occurrence.users.size(), 2u);
      }
    }
    EXPECT_TRUE(found_swapped);
    return;
  }
  FAIL() << "no swap drawn in 64 attempts (p < 2^-20)";
}

TEST_F(Figure1Test, FullStoryAttackComparison) {
  // Raw: the tracker follows both users through the crossing flawlessly.
  const geo::LocalProjection frame(
      world_.dataset().BoundingBox().Center());
  const attacks::MultiTargetTracker tracker;
  const geo::Point2 hub_world = world_.universe()
                                    .site(world_.profiles()[0].commute_hub)
                                    .position;
  const geo::Point2 hub =
      frame.Project(world_.projection().Unproject(hub_world));
  const auto raw_outcomes = tracker.TrackThroughZone(
      world_.dataset(), world_.dataset(), frame, hub, 200.0);
  EXPECT_DOUBLE_EQ(attacks::MultiTargetTracker::ConfusionRate(raw_outcomes),
                   0.0);
}

}  // namespace
}  // namespace mobipriv
