#include "metrics/kdelta.h"

#include <gtest/gtest.h>

#include "geo/projection.h"
#include "mechanisms/wait4me.h"

namespace mobipriv::metrics {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

/// `count` eastbound traces, `gap_m` apart vertically, same time span.
model::Dataset ParallelTraces(std::size_t count, double gap_m) {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  for (std::size_t u = 0; u < count; ++u) {
    std::vector<model::Event> events;
    for (int i = 0; i <= 10; ++i) {
      events.push_back(
          {projection.Unproject({i * 100.0, static_cast<double>(u) * gap_m}),
           static_cast<util::Timestamp>(i * 100)});
    }
    dataset.AddTraceForUser("u" + std::to_string(u), std::move(events));
  }
  return dataset;
}

TEST(KDelta, CoMovingGroupHasFullK) {
  KDeltaConfig config;
  config.delta_m = 300.0;
  const auto dataset = ParallelTraces(4, 50.0);
  const auto report = MeasureKDeltaAnonymity(dataset, config);
  ASSERT_EQ(report.per_trace.size(), 4u);
  for (const auto& t : report.per_trace) {
    EXPECT_EQ(t.k, 4u);  // everyone within 150 m of everyone
  }
  EXPECT_DOUBLE_EQ(report.FractionWithK(4), 1.0);
  EXPECT_DOUBLE_EQ(report.FractionWithK(5), 0.0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(KDelta, FarTracesAreAlone) {
  KDeltaConfig config;
  config.delta_m = 100.0;
  const auto dataset = ParallelTraces(3, 5000.0);
  const auto report = MeasureKDeltaAnonymity(dataset, config);
  for (const auto& t : report.per_trace) {
    EXPECT_EQ(t.k, 1u);
  }
  EXPECT_DOUBLE_EQ(report.FractionWithK(2), 0.0);
}

TEST(KDelta, DeltaControlsGroupMembership) {
  // 3 traces at 0, 400, 800 m: with delta 500, the middle sees both
  // neighbours (k=3) but the outer ones see only the middle (k=2).
  KDeltaConfig config;
  config.delta_m = 500.0;
  const auto dataset = ParallelTraces(3, 400.0);
  const auto report = MeasureKDeltaAnonymity(dataset, config);
  ASSERT_EQ(report.per_trace.size(), 3u);
  EXPECT_EQ(report.per_trace[0].k, 2u);
  EXPECT_EQ(report.per_trace[1].k, 3u);
  EXPECT_EQ(report.per_trace[2].k, 2u);
}

TEST(KDelta, CompanionMustSpanLifetime) {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  // Long trace 0..2000 s and a short companion 500..1000 s at distance 0.
  std::vector<model::Event> long_events;
  std::vector<model::Event> short_events;
  for (int i = 0; i <= 20; ++i) {
    long_events.push_back({projection.Unproject({i * 100.0, 0.0}),
                           static_cast<util::Timestamp>(i * 100)});
  }
  for (int i = 5; i <= 10; ++i) {
    short_events.push_back({projection.Unproject({i * 100.0, 0.0}),
                            static_cast<util::Timestamp>(i * 100)});
  }
  dataset.AddTraceForUser("long", std::move(long_events));
  dataset.AddTraceForUser("short", std::move(short_events));
  const auto report = MeasureKDeltaAnonymity(dataset);
  // The long trace is not covered by the short one...
  EXPECT_EQ(report.per_trace[0].k, 1u);
  // ...but the short trace IS covered by the long one.
  EXPECT_EQ(report.per_trace[1].k, 2u);
}

TEST(KDelta, ToleranceForgivesBriefSeparations) {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  std::vector<model::Event> a;
  std::vector<model::Event> b;
  for (int i = 0; i <= 10; ++i) {
    a.push_back({projection.Unproject({i * 100.0, 0.0}),
                 static_cast<util::Timestamp>(i * 100)});
    // b detours 1 km away for exactly one step.
    const double offset = (i == 5) ? 1000.0 : 10.0;
    b.push_back({projection.Unproject({i * 100.0, offset}),
                 static_cast<util::Timestamp>(i * 100)});
  }
  dataset.AddTraceForUser("a", std::move(a));
  dataset.AddTraceForUser("b", std::move(b));
  KDeltaConfig strict;
  strict.delta_m = 200.0;
  strict.grid_step_s = 100;
  EXPECT_EQ(MeasureKDeltaAnonymity(dataset, strict).per_trace[0].k, 1u);
  KDeltaConfig tolerant = strict;
  tolerant.tolerance = 0.15;  // one miss in 11 steps allowed
  EXPECT_EQ(MeasureKDeltaAnonymity(dataset, tolerant).per_trace[0].k, 2u);
}

TEST(KDelta, EmptyAndDegenerate) {
  const model::Dataset empty;
  EXPECT_TRUE(MeasureKDeltaAnonymity(empty).per_trace.empty());
  model::Dataset single;
  single.AddTraceForUser("u", {{kOrigin, 0}});
  const auto report = MeasureKDeltaAnonymity(single);
  ASSERT_EQ(report.per_trace.size(), 1u);
  EXPECT_EQ(report.per_trace[0].k, 1u);
}

TEST(KDelta, Wait4MeOutputSatisfiesItsOwnGuarantee) {
  // The constructive baseline must measure at k >= its configured k under
  // its configured delta — the two modules validate each other.
  mech::Wait4MeConfig w4m_config;
  w4m_config.k = 3;
  w4m_config.delta_m = 400.0;
  const mech::Wait4Me mechanism(w4m_config);
  util::Rng rng(1);
  const model::Dataset published =
      mechanism.Apply(ParallelTraces(6, 120.0), rng);
  ASSERT_GT(published.TraceCount(), 0u);
  KDeltaConfig measure;
  measure.delta_m = 400.0;
  measure.grid_step_s = 60;
  const auto report = MeasureKDeltaAnonymity(published, measure);
  for (const auto& t : report.per_trace) {
    EXPECT_GE(t.k, 3u) << "trace " << t.trace_index;
  }
}

}  // namespace
}  // namespace mobipriv::metrics
