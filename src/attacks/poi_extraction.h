// POI extraction attack (Gambs, Killijian, del Prado Cortez [1], "Show Me
// How You Move and I Will Tell You Who You Are").
//
// A point of interest is a place where a user *stops and spends time*. The
// extractor scans each trace for maximal runs of consecutive fixes that stay
// within a disc of diameter `max_diameter_m` for at least `min_duration_s`
// (a "stay point"), then agglomerates stay points of the same user that lie
// within `merge_radius_m` into one POI (home visited every evening is one
// POI, not thirty).
//
// Against raw data this recovers nearly every true POI. Against the paper's
// constant-speed traces the runs never last long enough — the user never
// appears stationary — which is exactly the privacy claim bench E2 measures.
#pragma once

#include <vector>

#include "geo/point2.h"
#include "geo/projection.h"
#include "model/dataset.h"
#include "model/views.h"
#include "util/time_utils.h"

namespace mobipriv::attacks {

struct PoiExtractionConfig {
  /// Maximal spatial extent (diameter) of a stay, metres.
  double max_diameter_m = 200.0;
  /// Minimal dwell time to call it a stop, seconds.
  util::Timestamp min_duration_s = 15 * 60;
  /// Stay points of one user closer than this merge into a single POI.
  double merge_radius_m = 100.0;
};

/// One extracted stay (before merging).
struct StayPoint {
  model::UserId user = model::kInvalidUser;
  geo::Point2 centroid;  ///< planar frame of the extractor's projection
  util::Timestamp arrival = 0;
  util::Timestamp departure = 0;
  std::size_t support = 0;  ///< number of fixes in the stay
};

/// One inferred POI (merged stays of one user).
struct ExtractedPoi {
  model::UserId user = model::kInvalidUser;
  geo::Point2 centroid;
  std::size_t visits = 0;             ///< merged stay count
  util::Timestamp total_dwell_s = 0;  ///< summed dwell over visits
};

class PoiExtractor {
 public:
  explicit PoiExtractor(PoiExtractionConfig config = {});

  [[nodiscard]] const PoiExtractionConfig& config() const noexcept {
    return config_;
  }

  /// Stay points of a single trace, given the projection used to go planar.
  [[nodiscard]] std::vector<StayPoint> ExtractStays(
      const model::TraceView& trace,
      const geo::LocalProjection& projection) const;

  /// Full attack on a dataset: per-user merged POIs. The planar frame is a
  /// projection centred on the dataset bounding box; pass the same
  /// projection to metrics that compare against ground truth.
  [[nodiscard]] std::vector<ExtractedPoi> Extract(
      const model::DatasetView& dataset,
      const geo::LocalProjection& projection) const;

  /// Convenience overload that builds the canonical dataset projection.
  [[nodiscard]] std::vector<ExtractedPoi> Extract(
      const model::DatasetView& dataset) const;

 private:
  PoiExtractionConfig config_;
};

/// The canonical projection every attack/metric uses for a dataset
/// (centred on its bounding box).
[[nodiscard]] geo::LocalProjection DatasetProjection(
    const model::DatasetView& dataset);

}  // namespace mobipriv::attacks
