#include "attacks/timing_attack.h"

#include <gtest/gtest.h>

#include "mechanisms/mixzone.h"

namespace mobipriv::attacks {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

/// Crossing pair through the origin (see mix-zone tests): A west->east,
/// B south->north, both at 2 m/s crossing at t = 500.
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

TEST(TimingAttack, ObservesCrossingsWithGroundTruth) {
  const model::Dataset original = CrossingPair();
  const geo::LocalProjection projection(kOrigin);
  const mech::MixZone mixzone;  // radius 150 m, suppression on
  util::Rng rng(1);
  mech::MixZoneReport report;
  const model::EventStore published =
      mixzone.ApplyToStoreWithReport(original, rng, report);
  ASSERT_GE(report.occurrences, 1u);
  const TimingAttack attack;
  const auto crossings =
      attack.ObserveCrossings(original, published.View(), projection,
                              report.zones.front().center, 150.0);
  ASSERT_EQ(crossings.size(), 2u);
  for (const auto& c : crossings) {
    EXPECT_LT(c.entry_time, c.exit_time);
    EXPECT_NE(c.true_exit, model::kInvalidUser);
  }
}

TEST(TimingAttack, SymmetricCrossingIsAmbiguous) {
  // Both users have identical transit times: the timing attack cannot do
  // better than an arbitrary pick — over the two possible matchings it
  // scores either 0 or 1 entirely by greedy order, never "both confidently
  // right AND both confidently wrong". Just assert it runs and produces a
  // full matching with finite confidence.
  const model::Dataset original = CrossingPair();
  const geo::LocalProjection projection(kOrigin);
  const mech::MixZone mixzone;
  util::Rng rng(2);
  mech::MixZoneReport report;
  const model::EventStore published =
      mixzone.ApplyToStoreWithReport(original, rng, report);
  ASSERT_GE(report.occurrences, 1u);
  const TimingAttack attack;
  auto crossings =
      attack.ObserveCrossings(original, published.View(), projection,
                              report.zones.front().center, 150.0);
  const auto matches = attack.Match(std::move(crossings));
  ASSERT_EQ(matches.size(), 2u);
  for (const auto& m : matches) {
    EXPECT_NE(m.matched_exit, model::kInvalidUser);
    EXPECT_GT(m.confidence, 0.0);
    EXPECT_LE(m.confidence, 1.0);
  }
}

TEST(TimingAttack, DistinctTransitTimesAreLinkable) {
  // A fast crosser and a slow crosser: transit times differ sharply, so
  // timing alone re-links both correctly — the failure mode the paper's
  // "reasonably small" zones mitigate (small zones -> similar transits).
  const geo::LocalProjection projection(kOrigin);
  model::Dataset original;
  const auto fast = original.InternUser("fast");
  const auto slow = original.InternUser("slow");
  model::Trace tf;
  tf.set_user(fast);
  model::Trace ts;
  ts.set_user(slow);
  for (int i = 0; i <= 100; ++i) {
    const double s = -1000.0 + 20.0 * i;
    // Fast: 10 m/s (t = i*2); slow: 1 m/s (t = i*20), crossing offset so
    // both are inside the zone window together.
    tf.Append({projection.Unproject({s, 0.0}),
               static_cast<util::Timestamp>(i * 2)});
    ts.Append({projection.Unproject({0.0, s}),
               static_cast<util::Timestamp>(i * 20)});
  }
  original.AddTrace(std::move(tf));
  original.AddTrace(std::move(ts));

  mech::MixZoneConfig config;
  config.zone_radius_m = 150.0;
  config.time_window_s = 600;
  const mech::MixZone mixzone(config);
  util::Rng rng(3);
  mech::MixZoneReport report;
  const model::EventStore published =
      mixzone.ApplyToStoreWithReport(original, rng, report);
  if (report.occurrences == 0) GTEST_SKIP() << "no temporal overlap";
  const TimingAttack attack;
  auto crossings =
      attack.ObserveCrossings(original, published.View(), projection,
                              report.zones.front().center, 150.0);
  if (crossings.size() < 2) GTEST_SKIP() << "one-sided crossing";
  const auto matches = attack.Match(std::move(crossings));
  EXPECT_DOUBLE_EQ(TimingAttack::Accuracy(matches), 1.0);
}

TEST(TimingAttack, EmptyInputs) {
  const TimingAttack attack;
  EXPECT_TRUE(attack.Match({}).empty());
  EXPECT_DOUBLE_EQ(TimingAttack::Accuracy({}), 0.0);
}

TEST(TimingAttack, NoZonePassageNoCrossings) {
  const model::Dataset original = CrossingPair();
  const geo::LocalProjection projection(kOrigin);
  const TimingAttack attack;
  // Published == original (no suppression hole): no observable crossings.
  const auto crossings = attack.ObserveCrossings(
      original, original, projection, {0.0, 0.0}, 150.0);
  EXPECT_TRUE(crossings.empty());
}

}  // namespace
}  // namespace mobipriv::attacks
