#include "metrics/coverage.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "geo/projection.h"
#include "util/parallel_reduce.h"

namespace mobipriv::metrics {
namespace {

using CellSet = std::unordered_set<std::uint64_t>;

std::uint64_t CellKey(geo::Point2 p, double cell) {
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / cell));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / cell));
  // Interleave-free packing: 32 bits per axis is ample for city scales.
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

CellSet VisitedCells(const model::DatasetView& dataset,
                     const geo::LocalProjection& projection, double cell) {
  // Trace blocks rasterize to partial sets on the pool; set-union is
  // order-insensitive, so the merged footprint is exact regardless of
  // chunking or worker count.
  return util::ParallelReduce<CellSet>(
      dataset.TraceCount(), /*grain=*/16,
      [&](std::size_t begin, std::size_t end) {
        CellSet cells;
        for (std::size_t t = begin; t < end; ++t) {
          const model::TraceView& trace = dataset.trace(t);
          for (std::size_t i = 0; i < trace.size(); ++i) {
            cells.insert(CellKey(projection.Project(trace.position(i)), cell));
          }
        }
        return cells;
      },
      [](CellSet& acc, CellSet&& partial) {
        acc.insert(partial.begin(), partial.end());
      });
}

}  // namespace

double CoverageJaccard(const model::DatasetView& a,
                       const model::DatasetView& b,
                       const CoverageConfig& config) {
  geo::GeoBoundingBox bbox = a.BoundingBox();
  bbox.Extend(b.BoundingBox());
  if (bbox.IsEmpty()) return 1.0;  // both empty: identical footprints
  const geo::LocalProjection projection(bbox.Center());
  const CellSet cells_a = VisitedCells(a, projection, config.cell_size_m);
  const CellSet cells_b = VisitedCells(b, projection, config.cell_size_m);
  if (cells_a.empty() && cells_b.empty()) return 1.0;
  std::size_t intersection = 0;
  for (const auto key : cells_a) {
    if (cells_b.contains(key)) ++intersection;
  }
  const std::size_t union_size =
      cells_a.size() + cells_b.size() - intersection;
  return union_size == 0 ? 1.0
                         : static_cast<double>(intersection) /
                               static_cast<double>(union_size);
}

std::size_t CellFootprint(const model::DatasetView& dataset,
                          const CoverageConfig& config) {
  const geo::GeoBoundingBox bbox = dataset.BoundingBox();
  if (bbox.IsEmpty()) return 0;
  const geo::LocalProjection projection(bbox.Center());
  return VisitedCells(dataset, projection, config.cell_size_m).size();
}

}  // namespace mobipriv::metrics
