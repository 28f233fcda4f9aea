// Density heatmaps: the workhorse of mobility analytics (traffic studies,
// urban planning). The metric compares the spatial density distribution of
// the original and published datasets — cosine similarity and total-
// variation-style L1 distance over a common grid. Identity-free, so it is
// valid after trajectory swapping.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "geo/projection.h"
#include "model/dataset.h"
#include "model/views.h"

namespace mobipriv::metrics {

struct HeatmapConfig {
  double cell_size_m = 200.0;
};

/// Sparse event-count raster (mmap-opened shards rasterize without
/// materializing).
class Heatmap {
 public:
  Heatmap(const model::DatasetView& dataset,
          const geo::LocalProjection& projection,
          const HeatmapConfig& config = {});

  [[nodiscard]] std::size_t NonZeroCells() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::size_t TotalCount() const noexcept { return total_; }

  /// Cosine similarity of the two count vectors, in [0, 1].
  [[nodiscard]] static double Cosine(const Heatmap& a, const Heatmap& b);

  /// L1 distance of the *normalized* distributions, in [0, 2]
  /// (2 x total variation distance). 0 = identical densities.
  [[nodiscard]] static double NormalizedL1(const Heatmap& a, const Heatmap& b);

 private:
  std::unordered_map<std::uint64_t, double> counts_;
  std::size_t total_ = 0;
};

/// Convenience: cosine similarity of heatmaps on the union frame.
[[nodiscard]] double HeatmapSimilarity(const model::DatasetView& original,
                                       const model::DatasetView& published,
                                       const HeatmapConfig& config = {});

}  // namespace mobipriv::metrics
