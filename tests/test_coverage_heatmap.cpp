// Tests for the identity-free utility metrics: coverage Jaccard and heatmap
// similarity.
#include <gtest/gtest.h>

#include "geo/projection.h"
#include "metrics/coverage.h"
#include "metrics/heatmap.h"

namespace mobipriv::metrics {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

model::Dataset GridWalk(double offset_m, std::size_t points = 50) {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  std::vector<model::Event> events;
  for (std::size_t i = 0; i < points; ++i) {
    events.push_back(
        {projection.Unproject({offset_m + i * 400.0, 0.0}),
         static_cast<util::Timestamp>(i * 60)});
  }
  dataset.AddTraceForUser("u", std::move(events));
  return dataset;
}

TEST(Coverage, IdenticalDatasetsScoreOne) {
  const auto dataset = GridWalk(0.0);
  EXPECT_DOUBLE_EQ(CoverageJaccard(dataset, dataset), 1.0);
}

TEST(Coverage, DisjointFootprintsScoreZero) {
  const auto a = GridWalk(0.0);
  const auto b = GridWalk(1e6);  // 1000 km east
  EXPECT_DOUBLE_EQ(CoverageJaccard(a, b), 0.0);
}

TEST(Coverage, EmptyDatasetsScoreOne) {
  const model::Dataset empty;
  EXPECT_DOUBLE_EQ(CoverageJaccard(empty, empty), 1.0);
}

TEST(Coverage, PartialOverlap) {
  const auto a = GridWalk(0.0, 50);
  const auto b = GridWalk(10000.0, 50);  // half the cells shared
  const double j = CoverageJaccard(a, b);
  EXPECT_GT(j, 0.2);
  EXPECT_LT(j, 0.8);
}

TEST(Coverage, FootprintCounts) {
  CoverageConfig config;
  config.cell_size_m = 200.0;
  // 50 points, 400 m apart, 200 m cells: each point its own cell.
  const auto walk = GridWalk(0.0);
  const model::Dataset empty;
  EXPECT_EQ(CellFootprint(walk, config), 50u);
  EXPECT_EQ(CellFootprint(empty, config), 0u);
}

TEST(Coverage, CellSizeChangesGranularity) {
  const auto dataset = GridWalk(0.0);
  CoverageConfig coarse;
  coarse.cell_size_m = 10000.0;
  EXPECT_LT(CellFootprint(dataset, coarse), CellFootprint(dataset));
}

TEST(Heatmap, IdenticalDatasetsCosineOne) {
  const auto dataset = GridWalk(0.0);
  EXPECT_NEAR(HeatmapSimilarity(dataset, dataset), 1.0, 1e-12);
}

TEST(Heatmap, DisjointDatasetsCosineZero) {
  const auto near = GridWalk(0.0);
  const auto far = GridWalk(1e6);
  EXPECT_NEAR(HeatmapSimilarity(near, far), 0.0, 1e-12);
}

TEST(Heatmap, CosineInsensitiveToUniformScaling) {
  // Duplicating every event scales all counts by 2: cosine unchanged.
  const geo::LocalProjection projection(kOrigin);
  const auto a = GridWalk(0.0);
  model::Dataset doubled;
  for (const auto& trace : a.traces()) {
    std::vector<model::Event> events(trace.begin(), trace.end());
    events.insert(events.end(), trace.begin(), trace.end());
    doubled.AddTraceForUser("u", std::move(events));
  }
  EXPECT_NEAR(HeatmapSimilarity(a, doubled), 1.0, 1e-12);
}

TEST(Heatmap, NormalizedL1Properties) {
  const geo::LocalProjection projection(kOrigin);
  const auto a = GridWalk(0.0);
  const auto b = GridWalk(1e6);
  const Heatmap ha(a, projection);
  const Heatmap hb(b, projection);
  EXPECT_DOUBLE_EQ(Heatmap::NormalizedL1(ha, ha), 0.0);
  EXPECT_NEAR(Heatmap::NormalizedL1(ha, hb), 2.0, 1e-12);  // disjoint: TV=1
}

TEST(Heatmap, CountsAccounting) {
  const geo::LocalProjection projection(kOrigin);
  const auto dataset = GridWalk(0.0, 30);
  const Heatmap h(dataset, projection);
  EXPECT_EQ(h.TotalCount(), 30u);
  EXPECT_GT(h.NonZeroCells(), 20u);
}

TEST(Heatmap, EmptyDatasets) {
  const geo::LocalProjection projection(kOrigin);
  const model::Dataset no_events;
  const auto walk = GridWalk(0.0);
  const Heatmap empty(no_events, projection);
  const Heatmap full(walk, projection);
  EXPECT_DOUBLE_EQ(Heatmap::Cosine(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(Heatmap::Cosine(empty, full), 0.0);
  EXPECT_DOUBLE_EQ(Heatmap::NormalizedL1(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(Heatmap::NormalizedL1(empty, full), 2.0);
}

}  // namespace
}  // namespace mobipriv::metrics
