#include "metrics/spatial_distortion.h"

#include <gtest/gtest.h>

#include "geo/projection.h"

namespace mobipriv::metrics {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

model::Trace EastboundTrace(model::UserId user, double offset_north_m,
                            util::Timestamp t0 = 0) {
  const geo::LocalProjection projection(kOrigin);
  model::Trace trace;
  trace.set_user(user);
  for (int i = 0; i <= 20; ++i) {
    trace.Append({projection.Unproject({i * 100.0, offset_north_m}),
                  t0 + static_cast<util::Timestamp>(i * 60)});
  }
  return trace;
}

TEST(SynchronizedDeviation, ZeroForIdenticalTraces) {
  const auto trace = EastboundTrace(0, 0.0);
  const auto d = SynchronizedDeviation(trace, trace);
  ASSERT_EQ(d.size(), trace.size());
  for (const double x : d) EXPECT_NEAR(x, 0.0, 1e-6);
}

TEST(SynchronizedDeviation, ConstantOffset) {
  const auto original = EastboundTrace(0, 0.0);
  const auto shifted = EastboundTrace(0, 250.0);
  for (const double x : SynchronizedDeviation(original, shifted)) {
    EXPECT_NEAR(x, 250.0, 1.0);
  }
}

TEST(SynchronizedDeviation, CapturesTimeDistortion) {
  // Same geometry, but published twice as fast then stationary: at late
  // original times the published interpolation sits at the east end.
  const geo::LocalProjection projection(kOrigin);
  const auto original = EastboundTrace(0, 0.0);  // 100 m per 60 s
  model::Trace fast;
  fast.set_user(0);
  for (int i = 0; i <= 20; ++i) {
    fast.Append({projection.Unproject({i * 100.0, 0.0}),
                 static_cast<util::Timestamp>(i * 30)});
  }
  const auto d = SynchronizedDeviation(original, fast);
  // At t=600 the original is at 1000 m; 'fast' is already at 2000 m.
  EXPECT_NEAR(d[10], 1000.0, 5.0);
  // Geometry-only deviation stays zero.
  for (const double x : PathDeviation(original, fast)) {
    EXPECT_NEAR(x, 0.0, 1e-6);
  }
}

TEST(PathDeviation, MeasuresGeometricError) {
  const auto original = EastboundTrace(0, 0.0);
  const auto shifted = EastboundTrace(0, 100.0);
  for (const double x : PathDeviation(original, shifted)) {
    EXPECT_NEAR(x, 100.0, 0.5);
  }
}

TEST(Deviation, EmptyInputs) {
  const auto trace = EastboundTrace(0, 0.0);
  const model::Trace empty;
  EXPECT_TRUE(SynchronizedDeviation(empty, trace).empty());
  EXPECT_TRUE(SynchronizedDeviation(trace, empty).empty());
  EXPECT_TRUE(PathDeviation(empty, trace).empty());
}

TEST(MeasureDistortion, MatchesByUserAndOverlap) {
  model::Dataset original;
  original.InternUser("a");
  original.InternUser("b");
  original.AddTrace(EastboundTrace(0, 0.0));
  original.AddTrace(EastboundTrace(1, 5000.0));
  model::Dataset published;
  published.InternUser("a");
  published.InternUser("b");
  published.AddTrace(EastboundTrace(0, 100.0));   // a: shifted 100 m
  published.AddTrace(EastboundTrace(1, 5300.0));  // b: shifted 300 m
  const auto summary = MeasureDistortion(original, published);
  EXPECT_EQ(summary.compared_traces, 2u);
  EXPECT_EQ(summary.skipped_traces, 0u);
  EXPECT_NEAR(summary.path_m.mean, 200.0, 2.0);  // average of 100 and 300
}

TEST(MeasureDistortion, SkipsUnmatchedTraces) {
  model::Dataset original;
  original.InternUser("a");
  original.AddTrace(EastboundTrace(0, 0.0));
  model::Dataset published;  // user exists but no overlapping trace
  published.InternUser("a");
  published.AddTrace(EastboundTrace(0, 0.0, /*t0=*/999999));
  const auto summary = MeasureDistortion(original, published);
  EXPECT_EQ(summary.compared_traces, 0u);
  EXPECT_EQ(summary.skipped_traces, 1u);
  EXPECT_FALSE(summary.ToString().empty());
}

}  // namespace
}  // namespace mobipriv::metrics
