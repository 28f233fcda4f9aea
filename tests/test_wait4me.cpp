#include "mechanisms/wait4me.h"

#include <gtest/gtest.h>

#include "geo/projection.h"

namespace mobipriv::mech {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

/// `count` parallel eastbound traces, vertically `gap_m` apart, sharing the
/// time span [0, 1000].
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

/// The original paper's headline utility cost: the fraction of input
/// traces absent from the output.
double SuppressionRatio(const model::Dataset& input,
                        const model::Dataset& output) {
  return 1.0 - static_cast<double>(output.TraceCount()) /
                   static_cast<double>(input.TraceCount());
}

TEST(Wait4Me, CloseTracesFormClustersNothingSuppressed) {
  Wait4MeConfig config;
  config.k = 2;
  config.delta_m = 400.0;
  const Wait4Me mechanism(config);
  util::Rng rng(1);
  const model::Dataset input = ParallelTraces(4, 50.0);
  const model::Dataset out = mechanism.Apply(input, rng);
  EXPECT_EQ(out.TraceCount(), 4u);
  EXPECT_DOUBLE_EQ(SuppressionRatio(input, out), 0.0);
}

TEST(Wait4Me, EnforcesDeltaCylinder) {
  Wait4MeConfig config;
  config.k = 2;
  config.delta_m = 100.0;  // tighter than the 300 m spread
  const Wait4Me mechanism(config);
  util::Rng rng(1);
  const model::Dataset input = ParallelTraces(2, 300.0);
  const model::Dataset out = mechanism.Apply(input, rng);
  ASSERT_EQ(out.TraceCount(), 2u);
  const geo::LocalProjection projection(kOrigin);
  // At every time step the two published tracks are within delta.
  const auto& a = out.traces()[0];
  const auto& b = out.traces()[1];
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = geo::Distance(projection.Project(a[i].position),
                                   projection.Project(b[i].position));
    EXPECT_LE(d, 100.0 + 1e-6);
  }
}

TEST(Wait4Me, OddOneOutSuppressed) {
  Wait4MeConfig config;
  config.k = 2;
  const Wait4Me mechanism(config);
  util::Rng rng(1);
  // 3 traces, k = 2: one cluster of 2, the leftover is trash.
  const model::Dataset input = ParallelTraces(3, 50.0);
  const model::Dataset out = mechanism.Apply(input, rng);
  EXPECT_EQ(out.TraceCount(), 2u);
  EXPECT_NEAR(SuppressionRatio(input, out), 1.0 / 3.0, 1e-9);
}

TEST(Wait4Me, KLargerThanPopulationSuppressesAll) {
  Wait4MeConfig config;
  config.k = 10;
  const Wait4Me mechanism(config);
  util::Rng rng(1);
  const model::Dataset input = ParallelTraces(3, 50.0);
  const model::Dataset out = mechanism.Apply(input, rng);
  EXPECT_EQ(out.TraceCount(), 0u);
  EXPECT_DOUBLE_EQ(SuppressionRatio(input, out), 1.0);
}

TEST(Wait4Me, NonOverlappingTraceSuppressed) {
  Wait4MeConfig config;
  config.k = 2;
  const Wait4Me mechanism(config);
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset = ParallelTraces(2, 50.0);
  // A third trace 10 hours later: cannot be aligned.
  std::vector<model::Event> late;
  for (int i = 0; i <= 10; ++i) {
    late.push_back({projection.Unproject({i * 100.0, 0.0}),
                    static_cast<util::Timestamp>(36000 + i * 100)});
  }
  dataset.AddTraceForUser("late", std::move(late));
  util::Rng rng(1);
  const model::Dataset out = mechanism.Apply(dataset, rng);
  EXPECT_EQ(out.TraceCount(), 2u);
  EXPECT_FALSE(out.FindUser("late").has_value() &&
               !out.TracesOfUser(*out.FindUser("late")).empty());
}

TEST(Wait4Me, OutputOnCommonTimeGrid) {
  Wait4MeConfig config;
  config.k = 2;
  config.grid_step_s = 100;
  const Wait4Me mechanism(config);
  util::Rng rng(1);
  const model::Dataset out = mechanism.Apply(ParallelTraces(2, 50.0), rng);
  ASSERT_EQ(out.TraceCount(), 2u);
  for (const auto& trace : out.traces()) {
    for (std::size_t i = 1; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].time - trace[i - 1].time, 100);
    }
  }
}

TEST(Wait4Me, EmptyDataset) {
  const Wait4Me mechanism;
  util::Rng rng(1);
  const model::Dataset out = mechanism.Apply(model::Dataset{}, rng);
  EXPECT_TRUE(out.empty());
}

TEST(Wait4Me, NameEncodesConfig) {
  Wait4MeConfig config;
  config.k = 5;
  config.delta_m = 250.0;
  EXPECT_EQ(Wait4Me(config).Name(), "wait4me[k=5,delta=250m]");
}

}  // namespace
}  // namespace mobipriv::mech
