// Spatio-temporal range-query distortion: the analyst-facing utility metric
// of E7. A workload of random queries "how many fixes fall in rectangle R
// during [t0, t1]?" is evaluated on the original and the published dataset;
// the metric is the distribution of relative errors. This is the standard
// utility benchmark of the trajectory-anonymization literature (including
// the Wait4Me paper the baseline reimplements).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geo/bounding_box.h"
#include "model/dataset.h"
#include "model/views.h"
#include "util/rng.h"
#include "util/statistics.h"

namespace mobipriv::metrics {

struct RangeQuery {
  geo::GeoBoundingBox box;
  util::Timestamp from = 0;
  util::Timestamp to = 0;
};

struct RangeQueryConfig {
  std::size_t query_count = 200;
  /// Query rectangle edge, as a fraction of the dataset bounding box edge.
  double min_size_fraction = 0.05;
  double max_size_fraction = 0.25;
  /// Query duration, seconds.
  util::Timestamp min_duration_s = 1800;
  util::Timestamp max_duration_s = 4 * 3600;
};

/// The closed-bounds membership test of every range count: time in
/// [from, to] and position inside the box. CountEvents and
/// RangeCountIndex both apply it, so the reference scan and the index
/// cannot drift. An empty box, NaN coordinates and from > to match nothing.
[[nodiscard]] inline bool InRange(const RangeQuery& query, double lat,
                                  double lng, util::Timestamp time) noexcept {
  return time >= query.from && time <= query.to &&
         query.box.Contains(geo::LatLng{lat, lng});
}

/// Number of events inside the query (closed bounds) by a linear scan —
/// the reference RangeCountIndex is tested against. The TraceView form is
/// the implementation; the DatasetView form sums it over traces.
[[nodiscard]] std::size_t CountEvents(const model::DatasetView& dataset,
                                      const RangeQuery& query);
[[nodiscard]] std::size_t CountEvents(const model::TraceView& trace,
                                      const RangeQuery& query);

/// Exact range counting for many queries over one fixed set of traces.
/// The constructor buckets every event into (time bucket x latitude strip)
/// cells with one counting-sort pass: SoA lat / lng / time columns plus
/// CSR cell offsets, the grid shape a fixed function of the event count.
/// Count visits only the cells whose time and latitude ranges overlap the
/// query and applies InRange to every event there. The event -> cell map
/// is monotone in time and in latitude, so no matching event sits in an
/// unvisited cell: Count(q) equals the summed CountEvents(trace, q) for
/// any input, including unsorted traces, duplicate timestamps, NaN and
/// infinite coordinates and INT64_MIN / INT64_MAX timestamps. Holds
/// 24 B per event, plus 4 B per event while building.
class RangeCountIndex {
 public:
  explicit RangeCountIndex(std::span<const model::TraceView> traces);

  [[nodiscard]] std::size_t Count(const RangeQuery& query) const;

 private:
  [[nodiscard]] std::size_t TimeBucket(util::Timestamp time) const noexcept;
  [[nodiscard]] std::size_t LatStrip(double lat) const noexcept;

  /// Each axis maps a value to floor((value - low) * scale), clamped to
  /// its cells. Time extent of the indexed events: [t_min_, t_max_].
  std::size_t time_buckets_ = 1;
  std::size_t lat_strips_ = 1;
  util::Timestamp t_min_ = 0;
  util::Timestamp t_max_ = 0;
  double time_scale_ = 0.0;
  double lat_lo_ = 0.0;
  double lat_scale_ = 0.0;
  /// Cell strip * time_buckets_ + bucket holds events
  /// [cell_start_[cell], cell_start_[cell + 1]): the buckets of one strip
  /// are adjacent, so a query reads one contiguous run per visited strip.
  std::vector<std::size_t> cell_start_;
  std::vector<double> lat_;
  std::vector<double> lng_;
  std::vector<util::Timestamp> time_;
};

/// Samples a query workload covering the dataset's extent and time span.
[[nodiscard]] std::vector<RangeQuery> SampleQueries(
    const model::DatasetView& dataset, const RangeQueryConfig& config,
    util::Rng& rng);

/// Workload sampling from precomputed extents — the exact draw sequence
/// SampleQueries makes once it knows the bounding box and time span, so a
/// caller that folded those extents out-of-core (the shard-streamed
/// engine) samples the identical workload without a resident dataset.
/// Empty when `bbox` is empty or t_min > t_max (no events).
[[nodiscard]] std::vector<RangeQuery> SampleQueriesFromExtent(
    const geo::GeoBoundingBox& bbox, util::Timestamp t_min,
    util::Timestamp t_max, const RangeQueryConfig& config, util::Rng& rng);

struct RangeQueryReport {
  util::Summary relative_error;  ///< |orig - pub| / max(orig, 1), per query
  std::size_t queries = 0;
  std::size_t empty_on_original = 0;  ///< queries with no original events

  [[nodiscard]] std::string ToString() const;
};

/// Exact event count of every query over `traces`: one RangeCountIndex,
/// then the queries fan out on the thread pool into pre-sized slots, so
/// the counts are the same at any worker count.
[[nodiscard]] std::vector<std::size_t> CountQueries(
    std::span<const model::TraceView> traces,
    const std::vector<RangeQuery>& queries);

/// The error distribution of one workload from its per-query counts on
/// each side (parallel spans): |orig - pub| / max(orig, 1) per query.
[[nodiscard]] RangeQueryReport SummarizeRangeQueryError(
    std::span<const std::size_t> original_counts,
    std::span<const std::size_t> published_counts);

/// Runs the workload on both datasets and reports the error distribution:
/// SummarizeRangeQueryError over the CountQueries of each side.
[[nodiscard]] RangeQueryReport MeasureRangeQueryError(
    const model::DatasetView& original, const model::DatasetView& published,
    const std::vector<RangeQuery>& queries);

}  // namespace mobipriv::metrics
