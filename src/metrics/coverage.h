// Area-coverage similarity: do analysts see the same *places* in the
// published data? Both datasets are rasterized onto a common grid; the
// metric is the Jaccard similarity of the visited-cell sets. Robust to
// swapping (identity-free) and to time distortion — it isolates pure
// geographic utility.
#pragma once

#include <cstddef>
#include <unordered_set>

#include "model/dataset.h"
#include "model/views.h"

namespace mobipriv::metrics {

struct CoverageConfig {
  double cell_size_m = 200.0;
};

/// Jaccard similarity in [0, 1] of visited grid cells (1 = identical
/// footprints). Both datasets are projected on the union bounding box.
/// Rasterization fans out per trace on the thread pool; cell sets are
/// order-free, so the result is exact at any worker count.
[[nodiscard]] double CoverageJaccard(const model::DatasetView& a,
                                     const model::DatasetView& b,
                                     const CoverageConfig& config = {});

/// Number of distinct cells visited by a dataset (its footprint size).
[[nodiscard]] std::size_t CellFootprint(const model::DatasetView& dataset,
                                        const CoverageConfig& config = {});

}  // namespace mobipriv::metrics
