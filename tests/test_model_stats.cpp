#include "model/stats.h"

#include <gtest/gtest.h>

#include "model/dataset.h"

namespace mobipriv::model {
namespace {

// The kernels take views, and a view over a temporary does not compile
// (model/views.h), so the fixtures are named statics.
const Trace& ConstantSpeedTrace() {
  // Equal hops (~1112 m) and equal intervals (100 s).
  static const Trace trace(1, {{{45.00, 4.0}, 0},
                               {{45.01, 4.0}, 100},
                               {{45.02, 4.0}, 200},
                               {{45.03, 4.0}, 300}});
  return trace;
}

const Trace& StopAndGoTrace() {
  // Stationary for 2000 s (two segments), then a fast hop: speeds
  // {0, 0, v} have CV = sqrt(2) > 1.
  static const Trace trace(1, {{{45.00, 4.0}, 0},
                               {{45.00, 4.0}, 1000},
                               {{45.00, 4.0}, 2000},
                               {{45.05, 4.0}, 2100}});
  return trace;
}

const Trace kEmptyTrace;

TEST(InterEventDistances, Values) {
  const auto d = InterEventDistances(ConstantSpeedTrace());
  ASSERT_EQ(d.size(), 3u);
  for (const double x : d) EXPECT_NEAR(x, 1112.0, 2.0);
  EXPECT_TRUE(InterEventDistances(kEmptyTrace).empty());
}

TEST(InterEventIntervals, Values) {
  const auto dt = InterEventIntervals(ConstantSpeedTrace());
  ASSERT_EQ(dt.size(), 3u);
  for (const double x : dt) EXPECT_DOUBLE_EQ(x, 100.0);
}

TEST(SpeedProfile, ConstantTrace) {
  const auto speeds = SpeedProfile(ConstantSpeedTrace());
  ASSERT_EQ(speeds.size(), 3u);
  for (const double s : speeds) EXPECT_NEAR(s, 11.12, 0.02);
}

TEST(SpeedProfile, ZeroIntervalYieldsZeroSpeed) {
  Trace trace(1, {{{45.0, 4.0}, 10}, {{45.1, 4.0}, 10}});
  const auto speeds = SpeedProfile(trace);
  ASSERT_EQ(speeds.size(), 1u);
  EXPECT_DOUBLE_EQ(speeds[0], 0.0);
}

TEST(SpeedCoefficientOfVariation, DiscriminatesStops) {
  // The paper's stage-1 invariant: constant-speed traces have CV ~ 0,
  // stop-and-go traces have large CV.
  EXPECT_NEAR(SpeedCoefficientOfVariation(ConstantSpeedTrace()), 0.0, 1e-3);
  EXPECT_GT(SpeedCoefficientOfVariation(StopAndGoTrace()), 1.0);
}

TEST(SpeedCoefficientOfVariation, DegenerateTraces) {
  EXPECT_DOUBLE_EQ(SpeedCoefficientOfVariation(kEmptyTrace), 0.0);
  Trace two(1, {{{45.0, 4.0}, 0}, {{45.1, 4.0}, 10}});
  EXPECT_DOUBLE_EQ(SpeedCoefficientOfVariation(two), 0.0);  // single segment
}

TEST(ComputeDatasetStats, Aggregates) {
  Dataset dataset;
  dataset.AddTraceForUser("a", ConstantSpeedTrace().events());
  dataset.AddTraceForUser("b", StopAndGoTrace().events());
  const DatasetStats stats = ComputeDatasetStats(dataset);
  EXPECT_EQ(stats.users, 2u);
  EXPECT_EQ(stats.traces, 2u);
  EXPECT_EQ(stats.events, 8u);
  EXPECT_EQ(stats.trace_events.count, 2u);
  EXPECT_DOUBLE_EQ(stats.trace_duration_s.max, 2100.0);
  EXPECT_EQ(stats.speed_mps.count, 6u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(ComputeDatasetStats, EmptyDataset) {
  const Dataset empty;
  const DatasetStats stats = ComputeDatasetStats(empty);
  EXPECT_EQ(stats.users, 0u);
  EXPECT_EQ(stats.events, 0u);
}

}  // namespace
}  // namespace mobipriv::model
