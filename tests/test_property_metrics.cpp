// Parameterized property sweeps over the utility metrics: identities,
// bounds, symmetry and monotonicity that must hold at every configuration.
#include <gtest/gtest.h>

#include "geo/projection.h"
#include "mechanisms/gaussian_noise.h"
#include "metrics/coverage.h"
#include "metrics/heatmap.h"
#include "metrics/range_queries.h"
#include "metrics/trajectory_stats.h"
#include "synth/population.h"

namespace mobipriv::metrics {
namespace {

const model::Dataset& World() {
  static const model::Dataset dataset = [] {
    synth::PopulationConfig config;
    config.agents = 5;
    config.days = 1;
    config.seed = 2024;
    return synth::SyntheticWorld(config).dataset().Clone();
  }();
  return dataset;
}

model::Dataset Noised(double sigma, std::uint64_t seed) {
  mech::GaussianNoiseConfig config;
  config.sigma_m = sigma;
  const mech::GaussianNoise mechanism(config);
  util::Rng rng(seed);
  return mechanism.Apply(World(), rng);
}

// ------------------------------------------------------------- coverage --

class CoverageProperty : public ::testing::TestWithParam<double> {};

TEST_P(CoverageProperty, BoundsAndIdentity) {
  CoverageConfig config;
  config.cell_size_m = GetParam();
  EXPECT_DOUBLE_EQ(CoverageJaccard(World(), World(), config), 1.0);
  const auto noised = Noised(300.0, 1);
  const double j = CoverageJaccard(World(), noised, config);
  EXPECT_GE(j, 0.0);
  EXPECT_LE(j, 1.0);
}

TEST_P(CoverageProperty, Symmetry) {
  CoverageConfig config;
  config.cell_size_m = GetParam();
  const auto noised = Noised(200.0, 2);
  EXPECT_DOUBLE_EQ(CoverageJaccard(World(), noised, config),
                   CoverageJaccard(noised, World(), config));
}

TEST_P(CoverageProperty, MoreNoiseNeverHelps) {
  CoverageConfig config;
  config.cell_size_m = GetParam();
  const auto mildly_noised = Noised(50.0, 3);
  const auto heavily_noised = Noised(2000.0, 3);
  const double mild = CoverageJaccard(World(), mildly_noised, config);
  const double heavy = CoverageJaccard(World(), heavily_noised, config);
  EXPECT_GE(mild, heavy);
}

INSTANTIATE_TEST_SUITE_P(CellSizes, CoverageProperty,
                         ::testing::Values(100.0, 250.0, 500.0, 1000.0));

// -------------------------------------------------------------- heatmap --

class HeatmapProperty : public ::testing::TestWithParam<double> {};

TEST_P(HeatmapProperty, CosineBoundsSymmetryIdentity) {
  HeatmapConfig config;
  config.cell_size_m = GetParam();
  EXPECT_NEAR(HeatmapSimilarity(World(), World(), config), 1.0, 1e-12);
  const auto noised = Noised(500.0, 4);
  const double ab = HeatmapSimilarity(World(), noised, config);
  const double ba = HeatmapSimilarity(noised, World(), config);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0 + 1e-12);
  EXPECT_NEAR(ab, ba, 1e-12);
}

TEST_P(HeatmapProperty, NormalizedL1TriangleWithZero) {
  HeatmapConfig config;
  config.cell_size_m = GetParam();
  const geo::LocalProjection projection(World().BoundingBox().Center());
  const Heatmap a(World(), projection, config);
  const auto noised = Noised(300.0, 5);
  const Heatmap b(noised, projection, config);
  const double l1 = Heatmap::NormalizedL1(a, b);
  EXPECT_GE(l1, 0.0);
  EXPECT_LE(l1, 2.0 + 1e-12);
  EXPECT_NEAR(Heatmap::NormalizedL1(a, a), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(CellSizes, HeatmapProperty,
                         ::testing::Values(100.0, 250.0, 500.0));

// -------------------------------------------------------- range queries --

class RangeQueryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeQueryProperty, IdentityHasZeroErrorAtAnySeed) {
  util::Rng rng(GetParam());
  const auto queries = SampleQueries(World(), RangeQueryConfig{}, rng);
  const auto report = MeasureRangeQueryError(World(), World(), queries);
  EXPECT_DOUBLE_EQ(report.relative_error.max, 0.0);
}

TEST_P(RangeQueryProperty, ErrorsAreNonNegativeAndFinite) {
  util::Rng rng(GetParam());
  const auto queries = SampleQueries(World(), RangeQueryConfig{}, rng);
  const auto noised = Noised(400.0, GetParam());
  const auto report = MeasureRangeQueryError(World(), noised, queries);
  EXPECT_GE(report.relative_error.min, 0.0);
  EXPECT_LT(report.relative_error.max, 1e6);
  EXPECT_EQ(report.queries, queries.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeQueryProperty,
                         ::testing::Values(1ULL, 7ULL, 42ULL));

// ---------------------------------------------------- trajectory stats --

class TrajectoryStatsProperty
    : public ::testing::TestWithParam<double> {};

TEST_P(TrajectoryStatsProperty, EmdIsAPseudometricOnSamples) {
  const double sigma = GetParam();
  const auto a = TripLengths(World());
  const auto noised_b = Noised(sigma, 8);
  const auto noised_c = Noised(sigma, 9);
  const auto b = TripLengths(noised_b);
  const auto c = TripLengths(noised_c);
  const double ab = EarthMoversDistance(a, b);
  const double ba = EarthMoversDistance(b, a);
  EXPECT_NEAR(ab, ba, 1e-9);                         // symmetry
  EXPECT_GE(ab, 0.0);                                // non-negativity
  EXPECT_NEAR(EarthMoversDistance(a, a), 0.0, 1e-9); // identity
  // Triangle inequality (loose numerical tolerance).
  const double ac = EarthMoversDistance(a, c);
  const double bc = EarthMoversDistance(b, c);
  EXPECT_LE(ac, ab + bc + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(NoiseScales, TrajectoryStatsProperty,
                         ::testing::Values(50.0, 200.0, 800.0));

}  // namespace
}  // namespace mobipriv::metrics
