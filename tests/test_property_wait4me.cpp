// Parameterized property sweep of the Wait4Me baseline over (k, delta):
// its construction must actually deliver the (k, delta) guarantee it
// claims, cross-validated with the independent measurement metric.
#include <gtest/gtest.h>

#include "geo/projection.h"
#include "mechanisms/wait4me.h"
#include "metrics/kdelta.h"
#include "synth/population.h"

namespace mobipriv::mech {
namespace {

/// Population whose session traces overlap in time (same commute window),
/// giving Wait4Me something to cluster.
const model::Dataset& Input() {
  static const model::Dataset dataset = [] {
    synth::PopulationConfig config;
    config.agents = 10;
    config.days = 1;
    config.seed = 31;
    config.schedule.work_start_stddev = 5 * util::kSecondsPerMinute;
    return synth::SyntheticWorld(config).dataset().Clone();
  }();
  return dataset;
}

/// Fraction of Input() traces absent from `published`.
double SuppressionRatio(const model::Dataset& published) {
  return 1.0 - static_cast<double>(published.TraceCount()) /
                   static_cast<double>(Input().TraceCount());
}

class Wait4MeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {
 protected:
  Wait4Me MakeMechanism() const {
    Wait4MeConfig config;
    config.k = std::get<0>(GetParam());
    config.delta_m = std::get<1>(GetParam());
    return Wait4Me(config);
  }
};

TEST_P(Wait4MeProperty, PublishedClustersAreMultiplesOfNothingBelowK) {
  const auto mechanism = MakeMechanism();
  util::Rng rng(1);
  const model::Dataset published = mechanism.Apply(Input(), rng);
  // Published trace count is a sum of clusters of size exactly k.
  EXPECT_EQ(published.TraceCount() % std::get<0>(GetParam()), 0u);
  EXPECT_GE(SuppressionRatio(published), 0.0);
  EXPECT_LE(SuppressionRatio(published), 1.0);
}

TEST_P(Wait4MeProperty, MeasuredAnonymityMeetsConfiguredK) {
  const auto mechanism = MakeMechanism();
  util::Rng rng(2);
  const model::Dataset published = mechanism.Apply(Input(), rng);
  if (published.TraceCount() == 0) {
    GTEST_SKIP() << "everything suppressed at this (k, delta)";
  }
  metrics::KDeltaConfig measure;
  measure.delta_m = std::get<1>(GetParam());
  measure.grid_step_s = 60;
  const auto report = metrics::MeasureKDeltaAnonymity(published, measure);
  for (const auto& trace : report.per_trace) {
    EXPECT_GE(trace.k, std::get<0>(GetParam()))
        << "trace " << trace.trace_index;
  }
}

TEST_P(Wait4MeProperty, SuppressionGrowsWithK) {
  Wait4MeConfig small_config;
  small_config.k = 2;
  small_config.delta_m = std::get<1>(GetParam());
  const Wait4Me small_k(small_config);
  const auto mechanism = MakeMechanism();
  util::Rng rng_a(3);
  util::Rng rng_b(3);
  const model::Dataset small_k_out = small_k.Apply(Input(), rng_a);
  const model::Dataset out = mechanism.Apply(Input(), rng_b);
  if (std::get<0>(GetParam()) >= 2) {
    EXPECT_GE(SuppressionRatio(out), SuppressionRatio(small_k_out) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAndDelta, Wait4MeProperty,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4),
                       ::testing::Values(300.0, 800.0)));

}  // namespace
}  // namespace mobipriv::mech
