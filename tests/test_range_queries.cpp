#include "metrics/range_queries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "geo/projection.h"
#include "util/thread_pool.h"

namespace mobipriv::metrics {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

model::Dataset SampleDataset() {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  std::vector<model::Event> events;
  for (int i = 0; i < 100; ++i) {
    events.push_back({projection.Unproject({i * 100.0, 0.0}),
                      static_cast<util::Timestamp>(i * 60)});
  }
  dataset.AddTraceForUser("u", std::move(events));
  return dataset;
}

TEST(CountEvents, SpatialAndTemporalBounds) {
  const auto dataset = SampleDataset();
  RangeQuery everything;
  everything.box = dataset.BoundingBox();
  everything.from = 0;
  everything.to = 100000;
  EXPECT_EQ(CountEvents(dataset, everything), 100u);

  RangeQuery first_half_time = everything;
  first_half_time.to = 49 * 60;
  EXPECT_EQ(CountEvents(dataset, first_half_time), 50u);

  RangeQuery nowhere;
  nowhere.box = geo::GeoBoundingBox({0.0, 0.0}, {1.0, 1.0});
  nowhere.from = 0;
  nowhere.to = 100000;
  EXPECT_EQ(CountEvents(dataset, nowhere), 0u);
}

TEST(SampleQueries, RespectsConfigAndExtent) {
  const auto dataset = SampleDataset();
  RangeQueryConfig config;
  config.query_count = 50;
  util::Rng rng(3);
  const auto queries = SampleQueries(dataset, config, rng);
  ASSERT_EQ(queries.size(), 50u);
  const auto bbox = dataset.BoundingBox();
  for (const auto& query : queries) {
    EXPECT_GE(query.box.SouthWest().lat, bbox.SouthWest().lat - 1e-9);
    EXPECT_LE(query.box.NorthEast().lat, bbox.NorthEast().lat + 1e-9);
    EXPECT_LT(query.from, query.to);
    EXPECT_GE(query.to - query.from, config.min_duration_s);
    EXPECT_LE(query.to - query.from, config.max_duration_s);
  }
}

TEST(SampleQueries, EmptyDatasetYieldsNoQueries) {
  RangeQueryConfig config;
  util::Rng rng(1);
  const model::Dataset empty;
  EXPECT_TRUE(SampleQueries(empty, config, rng).empty());
}

TEST(MeasureRangeQueryError, IdenticalDatasetsZeroError) {
  const auto dataset = SampleDataset();
  util::Rng rng(5);
  const auto queries = SampleQueries(dataset, RangeQueryConfig{}, rng);
  const auto report = MeasureRangeQueryError(dataset, dataset, queries);
  EXPECT_EQ(report.queries, queries.size());
  EXPECT_DOUBLE_EQ(report.relative_error.max, 0.0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(MeasureRangeQueryError, EmptyPublicationMaxError) {
  const auto dataset = SampleDataset();
  util::Rng rng(5);
  auto queries = SampleQueries(dataset, RangeQueryConfig{}, rng);
  const model::Dataset empty;
  const auto report = MeasureRangeQueryError(dataset, empty, queries);
  // Every query hitting data has relative error 1.
  EXPECT_GT(report.relative_error.mean, 0.0);
  EXPECT_LE(report.relative_error.max, 1.0);
}

TEST(MeasureRangeQueryError, CountsEmptyOriginalQueries) {
  const auto dataset = SampleDataset();
  RangeQuery nowhere;
  nowhere.box = geo::GeoBoundingBox({0.0, 0.0}, {1.0, 1.0});
  nowhere.from = 0;
  nowhere.to = 10;
  const auto report =
      MeasureRangeQueryError(dataset, dataset, {nowhere});
  EXPECT_EQ(report.empty_on_original, 1u);
  EXPECT_DOUBLE_EQ(report.relative_error.max, 0.0);
}

TEST(MeasureRangeQueryError, DetectsCountInflation) {
  const auto original = SampleDataset();
  // Published: every event duplicated.
  model::Dataset doubled;
  for (const auto& trace : original.traces()) {
    std::vector<model::Event> events(trace.begin(), trace.end());
    events.insert(events.end(), trace.begin(), trace.end());
    doubled.AddTraceForUser("u", std::move(events));
  }
  RangeQuery everything;
  everything.box = original.BoundingBox();
  everything.from = 0;
  everything.to = 100000;
  const auto report =
      MeasureRangeQueryError(original, doubled, {everything});
  EXPECT_DOUBLE_EQ(report.relative_error.max, 1.0);  // 2x counts -> error 1
}

/// Owning columns behind a set of trace views (views over them stay valid
/// while the TraceSet lives and is not modified).
struct TraceSet {
  std::vector<std::vector<double>> lat;
  std::vector<std::vector<double>> lng;
  std::vector<std::vector<util::Timestamp>> time;

  [[nodiscard]] std::vector<model::TraceView> Views() const {
    std::vector<model::TraceView> views;
    for (std::size_t t = 0; t < time.size(); ++t) {
      const std::size_t n = time[t].size();
      views.emplace_back(
          static_cast<model::UserId>(t),
          model::StridedSpan<double>(lat[t].data(), n, sizeof(double)),
          model::StridedSpan<double>(lng[t].data(), n, sizeof(double)),
          model::StridedSpan<util::Timestamp>(time[t].data(), n,
                                              sizeof(util::Timestamp)));
    }
    return views;
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr util::Timestamp kTMin = std::numeric_limits<util::Timestamp>::min();
constexpr util::Timestamp kTMax = std::numeric_limits<util::Timestamp>::max();

/// A coordinate: mostly ordinary, sometimes an extreme or non-finite value.
double DrawCoordinate(util::Rng& rng) {
  static constexpr double kSpecial[] = {-kInf, kInf,  kNaN, -90.0, 90.0,
                                        -180.0, 180.0, 0.0,  -0.0,  1e300};
  if (rng.Bernoulli(0.05)) {
    return kSpecial[rng.NextBounded(std::size(kSpecial))];
  }
  // Coarse values repeat, so events share coordinates with box edges.
  if (rng.Bernoulli(0.3)) return static_cast<double>(rng.UniformInt(-2, 3));
  return rng.Uniform(-2.0, 3.0);
}

util::Timestamp DrawTime(util::Rng& rng) {
  static constexpr util::Timestamp kSpecial[] = {kTMin, kTMin + 1, kTMax - 1,
                                                 kTMax, 0, -1};
  if (rng.Bernoulli(0.05)) {
    return kSpecial[rng.NextBounded(std::size(kSpecial))];
  }
  // A narrow range makes duplicate timestamps common.
  return rng.UniformInt(-100, 5000);
}

TraceSet DrawTraceSet(util::Rng& rng) {
  TraceSet set;
  const auto traces = rng.NextBounded(8);
  // A few large sets, so the grid has many cells per axis.
  const std::uint64_t max_events = rng.Bernoulli(0.1) ? 5000 : 400;
  for (std::uint64_t t = 0; t < traces; ++t) {
    // Empty traces included; no trace is time-ordered.
    const auto n = rng.Bernoulli(0.2) ? 0 : rng.NextBounded(max_events);
    set.lat.emplace_back();
    set.lng.emplace_back();
    set.time.emplace_back();
    for (std::uint64_t i = 0; i < n; ++i) {
      set.lat.back().push_back(DrawCoordinate(rng));
      set.lng.back().push_back(DrawCoordinate(rng));
      set.time.back().push_back(DrawTime(rng));
    }
  }
  return set;
}

/// A query whose bounds are often copied from indexed events, so events
/// sit exactly on box edges and on from / to.
RangeQuery DrawQuery(const TraceSet& set, util::Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> slots;
  for (std::size_t t = 0; t < set.time.size(); ++t) {
    for (std::size_t i = 0; i < set.time[t].size(); ++i) slots.emplace_back(t, i);
  }
  const auto pick = [&]() -> std::pair<std::size_t, std::size_t> {
    return slots[rng.NextBounded(slots.size())];
  };
  const auto coordinate = [&](const std::vector<std::vector<double>>& column) {
    if (!slots.empty() && rng.Bernoulli(0.5)) {
      const auto [t, i] = pick();
      if (!std::isnan(column[t][i])) return column[t][i];
    }
    double value = DrawCoordinate(rng);
    while (std::isnan(value)) value = DrawCoordinate(rng);
    return value;
  };
  const auto time = [&] {
    if (!slots.empty() && rng.Bernoulli(0.5)) {
      const auto [t, i] = pick();
      return set.time[t][i];
    }
    return DrawTime(rng);
  };

  RangeQuery query;
  if (!rng.Bernoulli(0.05)) {  // else: the empty (uninitialized) box
    double lat0 = coordinate(set.lat);
    double lat1 = coordinate(set.lat);
    double lng0 = coordinate(set.lng);
    double lng1 = coordinate(set.lng);
    if (rng.Bernoulli(0.05)) {  // outside the ordinary coordinates
      lat0 = lng0 = 1e6;
      lat1 = lng1 = 2e6;
    }
    query.box = geo::GeoBoundingBox({std::min(lat0, lat1), std::min(lng0, lng1)},
                                    {std::max(lat0, lat1), std::max(lng0, lng1)});
  }
  query.from = time();
  query.to = time();
  if (rng.Bernoulli(0.05)) {  // after the ordinary timestamps
    query.from = 10000;
    query.to = 20000;
  }
  // Mostly ordered; from > to stays in the mix and must count 0.
  if (query.from > query.to && !rng.Bernoulli(0.1)) {
    std::swap(query.from, query.to);
  }
  return query;
}

TEST(RangeCountIndex, MatchesLinearScanOnRandomDraws) {
  util::Rng rng(20261017);
  std::size_t draws = 0;
  std::size_t nonzero = 0;
  for (int set_draw = 0; set_draw < 400; ++set_draw) {
    const TraceSet set = DrawTraceSet(rng);
    const auto views = set.Views();
    const RangeCountIndex index(views);
    for (int q = 0; q < 5; ++q, ++draws) {
      const RangeQuery query = DrawQuery(set, rng);
      std::size_t expected = 0;
      for (const auto& trace : views) expected += CountEvents(trace, query);
      ASSERT_EQ(index.Count(query), expected)
          << "set " << set_draw << " query " << q << " box "
          << query.box.SouthWest().lat << "," << query.box.SouthWest().lng
          << " .. " << query.box.NorthEast().lat << ","
          << query.box.NorthEast().lng << " time " << query.from << " .. "
          << query.to;
      if (expected > 0) ++nonzero;
    }
  }
  EXPECT_GE(draws, 1000u);
  // The draws must exercise real counts, not only empty answers.
  EXPECT_GT(nonzero, draws / 4);
}

TEST(RangeCountIndex, ExtremeTimestampsAndNonFiniteCoordinates) {
  TraceSet set;
  set.lat = {{-kInf, 0.0, kInf, kNaN, 1.0}, {}};
  set.lng = {{0.0, kNaN, 0.0, 0.0, kInf}, {}};
  set.time = {{kTMax, kTMin, 0, 5, kTMin}, {}};
  const auto views = set.Views();
  const RangeCountIndex index(views);

  RangeQuery all;
  all.box = geo::GeoBoundingBox({-kInf, -kInf}, {kInf, kInf});
  all.from = kTMin;
  all.to = kTMax;
  // NaN coordinates match nothing; infinities match an infinite box.
  EXPECT_EQ(index.Count(all), 3u);

  RangeQuery finite = all;
  finite.box = geo::GeoBoundingBox({-1.0, -1.0}, {1.0, 1.0});
  EXPECT_EQ(index.Count(finite), 0u);  // lng NaN at lat 0, lng inf at lat 1
  finite.box = geo::GeoBoundingBox({0.0, 0.0}, {0.0, 0.0});
  EXPECT_EQ(index.Count(finite), 0u);

  RangeQuery inverted = all;
  inverted.from = 1;
  inverted.to = 0;
  EXPECT_EQ(index.Count(inverted), 0u);

  RangeQuery empty_box = all;
  empty_box.box = geo::GeoBoundingBox{};
  EXPECT_EQ(index.Count(empty_box), 0u);

  EXPECT_EQ(RangeCountIndex({}).Count(all), 0u);
}

/// A random-walk world big enough for a many-cell grid.
model::Dataset WalkDataset(std::uint64_t seed, int agents) {
  util::Rng rng(seed);
  model::Dataset dataset;
  for (int a = 0; a < agents; ++a) {
    std::vector<model::Event> events;
    geo::LatLng position{45.70 + rng.Uniform(0.0, 0.1),
                         4.80 + rng.Uniform(0.0, 0.1)};
    util::Timestamp time = rng.UniformInt(0, 3600);
    for (int i = 0; i < 200; ++i) {
      position.lat += rng.Gaussian(0.0, 0.0005);
      position.lng += rng.Gaussian(0.0, 0.0005);
      time += rng.UniformInt(10, 120);
      events.push_back({position, time});
    }
    dataset.AddTraceForUser("u" + std::to_string(a), std::move(events));
  }
  return dataset;
}

TEST(MeasureRangeQueryError, MatchesLinearScanAndIsThreadCountInvariant) {
  const auto original = WalkDataset(11, 60);
  // Published: a different walk, partly outside the original's extent.
  const auto published = WalkDataset(12, 60);
  util::Rng rng(7);
  const auto queries = SampleQueries(original, RangeQueryConfig{}, rng);
  ASSERT_EQ(queries.size(), 200u);

  RangeQueryReport serial;
  RangeQueryReport parallel;
  {
    const util::ScopedParallelism one(1);
    serial = MeasureRangeQueryError(original, published, queries);
  }
  {
    const util::ScopedParallelism four(4);
    parallel = MeasureRangeQueryError(original, published, queries);
  }
  EXPECT_EQ(serial.ToString(), parallel.ToString());
  EXPECT_EQ(serial.empty_on_original, parallel.empty_on_original);
  EXPECT_EQ(serial.relative_error.mean, parallel.relative_error.mean);
  EXPECT_EQ(serial.relative_error.p95, parallel.relative_error.p95);

  // Reference: the linear scan, query by query.
  std::vector<double> errors;
  std::size_t empty = 0;
  for (const auto& query : queries) {
    const auto orig = CountEvents(original, query);
    const auto pub = CountEvents(published, query);
    if (orig == 0) ++empty;
    errors.push_back(std::abs(static_cast<double>(orig) -
                              static_cast<double>(pub)) /
                     std::max<double>(1.0, static_cast<double>(orig)));
  }
  EXPECT_EQ(serial.empty_on_original, empty);
  EXPECT_EQ(serial.relative_error.ToString(),
            util::Summary::Of(errors).ToString());
  EXPECT_EQ(serial.relative_error.mean, util::Summary::Of(errors).mean);
}

}  // namespace
}  // namespace mobipriv::metrics
