#include "mechanisms/mixzone.h"

#include <gtest/gtest.h>

#include <limits>

#include "geo/projection.h"

namespace mobipriv::mech {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

/// Two users crossing at the planar origin at the same time: A travels
/// west->east, B south->north, both passing (0,0) at t = 500.
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
    const double s = -1000.0 + 20.0 * i;  // -1000 .. 1000 m
    const auto t = static_cast<util::Timestamp>(i * 10);  // 0 .. 1000 s
    ta.Append({projection.Unproject({s, 0.0}), t});
    tb.Append({projection.Unproject({0.0, s}), t});
  }
  dataset.AddTrace(std::move(ta));
  dataset.AddTrace(std::move(tb));
  return dataset;
}

/// Same paths but 6 hours apart: spatial crossing, no temporal meeting.
model::Dataset DisjointTimesPair() {
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
    ta.Append({projection.Unproject({s, 0.0}),
               static_cast<util::Timestamp>(i * 10)});
    tb.Append({projection.Unproject({0.0, s}),
               static_cast<util::Timestamp>(21600 + i * 10)});
  }
  dataset.AddTrace(std::move(ta));
  dataset.AddTrace(std::move(tb));
  return dataset;
}

TEST(MixZone, DetectsTheNaturalCrossing) {
  const MixZone mechanism;
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset input = CrossingPair();
  (void)mechanism.ApplyToStoreWithReport(input, rng, report);
  EXPECT_GT(report.encounters, 0u);
  EXPECT_GE(report.zones.size(), 1u);
  EXPECT_GE(report.occurrences, 1u);
  // The zone sits at the crossing point (planar origin).
  EXPECT_LT(report.zones.front().center.Norm(), 200.0);
}

TEST(MixZone, NoMeetingNoZone) {
  const MixZone mechanism;
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset input = DisjointTimesPair();
  const model::EventStore out =
      mechanism.ApplyToStoreWithReport(input, rng, report);
  EXPECT_EQ(report.occurrences, 0u);
  EXPECT_EQ(report.swaps_applied, 0u);
  EXPECT_EQ(report.suppressed_events, 0u);
  EXPECT_EQ(out.EventCount(), DisjointTimesPair().EventCount());
}

TEST(MixZone, SuppressesInZonePoints) {
  const MixZone mechanism;  // radius 150 m
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset input = CrossingPair();
  const model::Dataset out =
      mechanism.ApplyToStoreWithReport(input, rng, report).ToDataset();
  EXPECT_GT(report.suppressed_events, 0u);
  EXPECT_EQ(out.EventCount() + report.suppressed_events,
            report.total_events);
  // No published event inside any zone disc during its episode.
  const geo::LocalProjection projection(kOrigin);
  for (const auto& zone : report.zones) {
    for (const auto& trace : out.traces()) {
      for (const auto& event : trace) {
        const double d =
            geo::Distance(projection.Project(event.position), zone.center);
        EXPECT_GT(d, zone.radius_m - 1.0);
      }
    }
  }
}

TEST(MixZone, SuppressionOffKeepsEverything) {
  MixZoneConfig config;
  config.suppress_zone_points = false;
  const MixZone mechanism(config);
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset input = CrossingPair();
  const model::EventStore out =
      mechanism.ApplyToStoreWithReport(input, rng, report);
  EXPECT_EQ(report.suppressed_events, 0u);
  EXPECT_EQ(out.EventCount(), report.total_events);
}

TEST(MixZone, SwapExchangesSuffixes) {
  // Find a seed where the permutation is a real swap, then verify the
  // suffixes actually moved: A's published identity ends where B's input
  // trace ends.
  const model::Dataset input = CrossingPair();
  const geo::LocalProjection projection(kOrigin);
  bool verified_swap = false;
  for (std::uint64_t seed = 0; seed < 32 && !verified_swap; ++seed) {
    const MixZone mechanism;
    util::Rng rng(seed);
    MixZoneReport report;
    const model::Dataset out =
        mechanism.ApplyToStoreWithReport(input, rng, report).ToDataset();
    if (report.swaps_applied == 0) continue;
    verified_swap = true;
    // After the swap, identity A's trace must end at B's destination
    // (north end: y ~ +1000) instead of A's own (east end: x ~ +1000).
    const auto a = out.FindUser("A");
    ASSERT_TRUE(a.has_value());
    bool found_a_trace = false;
    for (const auto& trace : out.traces()) {
      if (trace.user() != *a || trace.empty()) continue;
      // Examine the trace containing post-crossing times.
      if (trace.back().time < 600) continue;
      found_a_trace = true;
      const geo::Point2 end = projection.Project(trace.back().position);
      EXPECT_GT(end.y, 500.0) << "A's suffix should be B's path";
      EXPECT_LT(std::abs(end.x), 200.0);
    }
    EXPECT_TRUE(found_a_trace);
  }
  EXPECT_TRUE(verified_swap) << "no swap drawn in 32 seeds (p ~ 2^-32)";
}

TEST(MixZone, IdentityPermutationLeavesTracesIntact) {
  // With exactly 2 participants a uniform permutation is identity half the
  // time; find such a seed and check the output equals input minus the
  // suppressed points.
  const model::Dataset input = CrossingPair();
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const MixZone mechanism;
    util::Rng rng(seed);
    MixZoneReport report;
    const model::Dataset out =
        mechanism.ApplyToStoreWithReport(input, rng, report).ToDataset();
    if (report.swaps_applied != 0) continue;
    const geo::LocalProjection projection(kOrigin);
    const auto a = out.FindUser("A");
    ASSERT_TRUE(a.has_value());
    for (const auto& trace : out.traces()) {
      if (trace.user() != *a || trace.back().time < 600) continue;
      const geo::Point2 end = projection.Project(trace.back().position);
      EXPECT_GT(end.x, 500.0) << "A keeps its own (eastbound) suffix";
    }
    return;
  }
  FAIL() << "no identity permutation drawn in 32 seeds";
}

TEST(MixZone, ReportAccounting) {
  const MixZone mechanism;
  util::Rng rng(3);
  MixZoneReport report;
  const model::Dataset input = CrossingPair();
  (void)mechanism.ApplyToStoreWithReport(input, rng, report);
  EXPECT_EQ(report.total_events, CrossingPair().EventCount());
  EXPECT_EQ(report.occurrence_details.size(), report.occurrences);
  EXPECT_GE(report.SuppressionRatio(), 0.0);
  EXPECT_LE(report.SuppressionRatio(), 1.0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(MixZone, MinUsersThresholdRespected) {
  MixZoneConfig config;
  config.min_users = 3;  // two crossing users are not enough
  const MixZone mechanism(config);
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset input = CrossingPair();
  (void)mechanism.ApplyToStoreWithReport(input, rng, report);
  EXPECT_EQ(report.occurrences, 0u);
  EXPECT_EQ(report.swaps_applied, 0u);
}

TEST(MixZone, EmptyDataset) {
  const MixZone mechanism;
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset empty;
  const model::EventStore out =
      mechanism.ApplyToStoreWithReport(empty, rng, report);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(report.occurrences, 0u);
}

TEST(MixZone, SingleUserNeverMixes) {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  const auto u = dataset.InternUser("solo");
  model::Trace trace;
  trace.set_user(u);
  for (int i = 0; i <= 100; ++i) {
    trace.Append({projection.Unproject({20.0 * i, 0.0}),
                  static_cast<util::Timestamp>(i * 10)});
  }
  dataset.AddTrace(std::move(trace));
  const MixZone mechanism;
  util::Rng rng(1);
  MixZoneReport report;
  const model::EventStore out =
      mechanism.ApplyToStoreWithReport(dataset, rng, report);
  EXPECT_EQ(report.encounters, 0u);
  EXPECT_EQ(out.EventCount(), dataset.EventCount());
}

TEST(MixZone, ExtremeTimestampsMeetOnlyWithinTheWindow) {
  // Pairs at the ends of the timestamp range. Their time tests must not
  // overflow, and a pair whose true |dt| exceeds the window never meets:
  // INT64_MIN and INT64_MAX at one place are ~2^64 s apart.
  constexpr util::Timestamp kMin = std::numeric_limits<util::Timestamp>::min();
  constexpr util::Timestamp kMax = std::numeric_limits<util::Timestamp>::max();
  const geo::LocalProjection projection(kOrigin);
  const auto at = [&](double x) { return projection.Unproject({x, 0.0}); };
  model::Dataset dataset;
  dataset.AddTraceForUser("first", {{at(0.0), kMin}});
  dataset.AddTraceForUser("last", {{at(0.0), kMax}});
  // Meet: 10 s apart at the top of the range, exactly the window apart
  // at the bottom.
  dataset.AddTraceForUser("late_a", {{at(5000.0), kMax - 10}});
  dataset.AddTraceForUser("late_b", {{at(5000.0), kMax}});
  dataset.AddTraceForUser("early_a",
                          {{at(10000.0), kMin}, {at(10000.0), kMin + 1}});
  dataset.AddTraceForUser("early_b", {{at(10000.0), kMin + 600}});
  MixZoneConfig config;
  config.time_window_s = 600;
  const MixZone mechanism(config);
  util::Rng rng(1);
  MixZoneReport report;
  const model::EventStore out =
      mechanism.ApplyToStoreWithReport(dataset, rng, report);
  // (late_a, late_b) and (early_a@kMin, early_b); early_a@kMin+1 is 599 s
  // from early_b, so it meets too.
  EXPECT_EQ(report.encounters, 3u);
  EXPECT_EQ(mechanism.CountEncounters(dataset), 3u);
  EXPECT_EQ(report.occurrences, 2u);
  EXPECT_EQ(out.EventCount() + report.suppressed_events,
            dataset.EventCount());
}

TEST(MixZone, NameEncodesConfig) {
  MixZoneConfig config;
  config.zone_radius_m = 99.0;
  config.time_window_s = 42;
  EXPECT_EQ(MixZone(config).Name(), "mixzone[r=99m,w=42s]");
}

}  // namespace
}  // namespace mobipriv::mech
