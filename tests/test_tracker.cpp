#include "attacks/tracker.h"

#include <gtest/gtest.h>

#include "mechanisms/mixzone.h"

namespace mobipriv::attacks {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

/// Two straight crossing traces through the origin (as in the mix-zone
/// tests): A west->east, B south->north, both at 2 m/s, crossing at t=500.
model::Dataset CrossingPair() {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  const auto a = dataset.InternUser("A");
  const auto b = dataset.InternUser("B");
  model::Trace ta;
  ta.set_user(a);
  model::Trace tb;
  tb.set_user(b);
  for (int i = 0; i <= 100; ++i) {
    const double s = -1000.0 + 20.0 * i;
    const auto t = static_cast<util::Timestamp>(i * 10);
    ta.Append({projection.Unproject({s, 0.0}), t});
    tb.Append({projection.Unproject({0.0, s}), t});
  }
  dataset.AddTrace(std::move(ta));
  dataset.AddTrace(std::move(tb));
  return dataset;
}

TEST(Tracker, FollowsUnmixedTargetsPerfectly) {
  const model::Dataset dataset = CrossingPair();
  const geo::LocalProjection projection(kOrigin);
  const MultiTargetTracker tracker;
  // Published == original: the tracker must follow both users correctly.
  const auto outcomes = tracker.TrackThroughZone(
      dataset, dataset, projection, {0.0, 0.0}, 150.0);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.lost);
    EXPECT_EQ(o.followed, o.truth);
    EXPECT_LT(o.error_m, 100.0);
  }
  EXPECT_DOUBLE_EQ(MultiTargetTracker::ConfusionRate(outcomes), 0.0);
}

TEST(Tracker, ScoringUsesPublishedContinuationAsTruth) {
  // Apply a mix-zone; whatever permutation is drawn, the tracker's linear
  // prediction should follow each user's *physical* continuation, and the
  // truth field must point at the published identity carrying it. On
  // straight crossing paths the tracker predicts perfectly, so
  // followed == truth regardless of swapping.
  const model::Dataset original = CrossingPair();
  const geo::LocalProjection projection(kOrigin);
  mobipriv::mech::MixZoneConfig config;
  config.zone_radius_m = 150.0;
  const mobipriv::mech::MixZone mixzone(config);
  util::Rng rng(4);
  mobipriv::mech::MixZoneReport report;
  const model::EventStore published =
      mixzone.ApplyToStoreWithReport(original, rng, report);
  ASSERT_GE(report.occurrences, 1u);
  const MultiTargetTracker tracker;
  const auto outcomes =
      tracker.TrackThroughZone(original, published.View(), projection,
                               report.zones.front().center, 150.0);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.lost);
    // Straight paths: physics beats mixing, tracker stays on target.
    EXPECT_EQ(o.followed, o.truth);
  }
}

TEST(Tracker, GateDeclaresLostWhenNoPlausibleExit) {
  const model::Dataset original = CrossingPair();
  const geo::LocalProjection projection(kOrigin);
  // Published dataset: everything after the zone entry removed.
  model::Dataset published;
  published.InternUser("A");
  published.InternUser("B");
  for (const auto& trace : original.traces()) {
    model::Trace cut;
    cut.set_user(trace.user());
    for (const auto& event : trace) {
      if (event.time < 300) cut.Append(event);
    }
    published.AddTrace(std::move(cut));
  }
  TrackerConfig config;
  config.gate_radius_m = 100.0;
  const MultiTargetTracker tracker(config);
  const auto outcomes = tracker.TrackThroughZone(
      original, published, projection, {0.0, 0.0}, 150.0);
  // Continuations are missing from the publication: the targets are
  // skipped (no ground truth) — nothing to score.
  EXPECT_TRUE(outcomes.empty());
}

TEST(Tracker, TargetsNeverEnteringZoneAreIgnored) {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  const auto u = dataset.InternUser("far");
  model::Trace trace;
  trace.set_user(u);
  for (int i = 0; i <= 50; ++i) {
    trace.Append({projection.Unproject({5000.0 + i * 20.0, 5000.0}),
                  static_cast<util::Timestamp>(i * 10)});
  }
  dataset.AddTrace(std::move(trace));
  const MultiTargetTracker tracker;
  EXPECT_TRUE(tracker
                  .TrackThroughZone(dataset, dataset, projection,
                                    {0.0, 0.0}, 150.0)
                  .empty());
}

TEST(Tracker, ConfusionRateCountsMismatches) {
  std::vector<TrackingOutcome> outcomes(4);
  outcomes[0].truth = 1;
  outcomes[0].followed = 1;
  outcomes[1].truth = 1;
  outcomes[1].followed = 2;  // confused
  outcomes[2].truth = 3;
  outcomes[2].followed = 3;
  outcomes[3].lost = true;  // excluded
  EXPECT_NEAR(MultiTargetTracker::ConfusionRate(outcomes), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(MultiTargetTracker::ConfusionRate({}), 0.0);
}

}  // namespace
}  // namespace mobipriv::attacks
