#include "metrics/range_queries.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv::metrics {

std::size_t CountEvents(const model::TraceView& trace,
                        const RangeQuery& query) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (InRange(query, trace.lat(i), trace.lng(i), trace.time(i))) ++count;
  }
  return count;
}

std::size_t CountEvents(const model::DatasetView& dataset,
                        const RangeQuery& query) {
  std::size_t count = 0;
  for (const auto& trace : dataset.traces()) count += CountEvents(trace, query);
  return count;
}

namespace {

/// Grid shape: about this many events per cell, each axis capped so the
/// offsets array stays small (256^2 cells = 512 KiB).
constexpr double kEventsPerCell = 16.0;
constexpr std::size_t kMaxGridSide = 256;

/// floor(offset * scale) clamped to [0, cells - 1]. Monotone
/// non-decreasing in offset for scale >= 0; NaN maps to 0, and the double
/// is range-checked before the integer conversion.
std::size_t ScaledCell(double offset, double scale, std::size_t cells) {
  const double x = offset * scale;
  if (!(x > 0.0)) return 0;
  if (!(x < static_cast<double>(cells))) return cells - 1;
  return static_cast<std::size_t>(x);
}

}  // namespace

RangeCountIndex::RangeCountIndex(std::span<const model::TraceView> traces) {
  // Pass 1: extents. Time over every event (no per-trace order assumed);
  // latitude over finite values only, so the strip scale stays finite.
  std::size_t n = 0;
  t_min_ = std::numeric_limits<util::Timestamp>::max();
  t_max_ = std::numeric_limits<util::Timestamp>::min();
  double lat_min = std::numeric_limits<double>::infinity();
  double lat_max = -std::numeric_limits<double>::infinity();
  for (const model::TraceView& trace : traces) {
    n += trace.size();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      t_min_ = std::min(t_min_, trace.time(i));
      t_max_ = std::max(t_max_, trace.time(i));
      const double lat = trace.lat(i);
      if (std::isfinite(lat)) {
        lat_min = std::min(lat_min, lat);
        lat_max = std::max(lat_max, lat);
      }
    }
  }
  if (n == 0) return;  // Count answers 0 before reading any cell

  const auto side = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::sqrt(static_cast<double>(n) /
                                         kEventsPerCell)),
      1, kMaxGridSide);
  // Unsigned offsets: t_max - t_min never overflows, even across the
  // whole int64 range.
  const std::uint64_t span = static_cast<std::uint64_t>(t_max_) -
                             static_cast<std::uint64_t>(t_min_);
  if (span > 0) {
    time_buckets_ = side;
    time_scale_ = static_cast<double>(side) / static_cast<double>(span);
  }
  // One strip unless the scale is finite and positive: equal extents give
  // inf, no finite latitude gives -0, an overflowing span gives 0.
  const double lat_scale = static_cast<double>(side) / (lat_max - lat_min);
  if (std::isfinite(lat_scale) && lat_scale > 0.0) {
    lat_strips_ = side;
    lat_lo_ = lat_min;
    lat_scale_ = lat_scale;
  }

  // Pass 2: cell of every event, counted per cell.
  std::vector<std::uint32_t> cell(n);
  cell_start_.assign(time_buckets_ * lat_strips_ + 1, 0);
  std::size_t k = 0;
  for (const model::TraceView& trace : traces) {
    for (std::size_t i = 0; i < trace.size(); ++i, ++k) {
      cell[k] = static_cast<std::uint32_t>(LatStrip(trace.lat(i)) *
                                               time_buckets_ +
                                           TimeBucket(trace.time(i)));
      ++cell_start_[cell[k] + 1];
    }
  }
  for (std::size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }

  // Pass 3: scatter into the SoA columns, cell by cell.
  lat_.resize(n);
  lng_.resize(n);
  time_.resize(n);
  std::vector<std::size_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  k = 0;
  for (const model::TraceView& trace : traces) {
    for (std::size_t i = 0; i < trace.size(); ++i, ++k) {
      const std::size_t at = cursor[cell[k]]++;
      lat_[at] = trace.lat(i);
      lng_[at] = trace.lng(i);
      time_[at] = trace.time(i);
    }
  }
}

std::size_t RangeCountIndex::TimeBucket(util::Timestamp time) const noexcept {
  if (time <= t_min_) return 0;
  // time > t_min_, so the unsigned difference is the exact offset.
  const std::uint64_t offset = static_cast<std::uint64_t>(time) -
                               static_cast<std::uint64_t>(t_min_);
  return ScaledCell(static_cast<double>(offset), time_scale_, time_buckets_);
}

std::size_t RangeCountIndex::LatStrip(double lat) const noexcept {
  // Latitudes below the finite extent (-inf too) land in strip 0, those
  // beyond it (+inf too) in the last strip; NaN, which no box contains,
  // lands in strip 0.
  return ScaledCell(lat - lat_lo_, lat_scale_, lat_strips_);
}

std::size_t RangeCountIndex::Count(const RangeQuery& query) const {
  const geo::LatLng sw = query.box.SouthWest();
  const geo::LatLng ne = query.box.NorthEast();
  // Queries no event can satisfy stop before the cell arithmetic: no
  // events, an empty box, NaN or inverted latitude bounds, from > to, or
  // a time range wholly outside the indexed events.
  if (time_.empty() || query.box.IsEmpty() || !(sw.lat <= ne.lat) ||
      query.from > query.to || query.to < t_min_ || query.from > t_max_) {
    return 0;
  }
  const std::size_t first_bucket = TimeBucket(query.from);
  const std::size_t last_bucket = TimeBucket(query.to);
  const std::size_t last_strip = LatStrip(ne.lat);
  std::size_t count = 0;
  for (std::size_t strip = LatStrip(sw.lat); strip <= last_strip; ++strip) {
    const std::size_t row = strip * time_buckets_;
    const std::size_t end = cell_start_[row + last_bucket + 1];
    for (std::size_t e = cell_start_[row + first_bucket]; e < end; ++e) {
      count += InRange(query, lat_[e], lng_[e], time_[e]) ? 1 : 0;
    }
  }
  return count;
}

std::vector<RangeQuery> SampleQueries(const model::DatasetView& dataset,
                                      const RangeQueryConfig& config,
                                      util::Rng& rng) {
  const geo::GeoBoundingBox bbox = dataset.BoundingBox();

  // Dataset time span.
  util::Timestamp t_min = std::numeric_limits<util::Timestamp>::max();
  util::Timestamp t_max = std::numeric_limits<util::Timestamp>::min();
  for (const auto& trace : dataset.traces()) {
    if (trace.empty()) continue;
    t_min = std::min(t_min, trace.time(0));
    t_max = std::max(t_max, trace.time(trace.size() - 1));
  }
  return SampleQueriesFromExtent(bbox, t_min, t_max, config, rng);
}

std::vector<RangeQuery> SampleQueriesFromExtent(
    const geo::GeoBoundingBox& bbox, util::Timestamp t_min,
    util::Timestamp t_max, const RangeQueryConfig& config, util::Rng& rng) {
  std::vector<RangeQuery> queries;
  if (bbox.IsEmpty()) return queries;
  if (t_min > t_max) return queries;

  const double lat_span = bbox.NorthEast().lat - bbox.SouthWest().lat;
  const double lng_span = bbox.NorthEast().lng - bbox.SouthWest().lng;
  queries.reserve(config.query_count);
  for (std::size_t q = 0; q < config.query_count; ++q) {
    const double f =
        rng.Uniform(config.min_size_fraction, config.max_size_fraction);
    const double dlat = lat_span * f;
    const double dlng = lng_span * f;
    const double lat0 =
        rng.Uniform(bbox.SouthWest().lat, bbox.NorthEast().lat - dlat);
    const double lng0 =
        rng.Uniform(bbox.SouthWest().lng, bbox.NorthEast().lng - dlng);
    RangeQuery query;
    query.box = geo::GeoBoundingBox({lat0, lng0}, {lat0 + dlat, lng0 + dlng});
    const auto duration = static_cast<util::Timestamp>(
        rng.Uniform(static_cast<double>(config.min_duration_s),
                    static_cast<double>(config.max_duration_s)));
    const auto span = t_max - t_min;
    const auto start =
        t_min + static_cast<util::Timestamp>(
                    rng.Uniform(0.0, static_cast<double>(
                                         std::max<util::Timestamp>(
                                             1, span - duration))));
    query.from = start;
    query.to = start + duration;
    queries.push_back(query);
  }
  return queries;
}

std::string RangeQueryReport::ToString() const {
  std::ostringstream os;
  os << "queries=" << queries << " empty_on_original=" << empty_on_original
     << " rel_error: " << relative_error.ToString();
  return os.str();
}

std::vector<std::size_t> CountQueries(
    std::span<const model::TraceView> traces,
    const std::vector<RangeQuery>& queries) {
  const RangeCountIndex index(traces);
  std::vector<std::size_t> counts(queries.size());
  util::ParallelForEach(queries.size(), [&](std::size_t q) {
    counts[q] = index.Count(queries[q]);
  });
  return counts;
}

RangeQueryReport SummarizeRangeQueryError(
    std::span<const std::size_t> original_counts,
    std::span<const std::size_t> published_counts) {
  assert(original_counts.size() == published_counts.size());
  RangeQueryReport report;
  report.queries = original_counts.size();
  std::vector<double> errors(original_counts.size());
  for (std::size_t q = 0; q < original_counts.size(); ++q) {
    const auto count_orig = original_counts[q];
    if (count_orig == 0) ++report.empty_on_original;
    const double denom = std::max<double>(1.0, static_cast<double>(count_orig));
    errors[q] = std::abs(static_cast<double>(count_orig) -
                         static_cast<double>(published_counts[q])) /
                denom;
  }
  report.relative_error = util::Summary::Of(errors);
  return report;
}

RangeQueryReport MeasureRangeQueryError(
    const model::DatasetView& original, const model::DatasetView& published,
    const std::vector<RangeQuery>& queries) {
  return SummarizeRangeQueryError(CountQueries(original.traces(), queries),
                                  CountQueries(published.traces(), queries));
}

}  // namespace mobipriv::metrics
