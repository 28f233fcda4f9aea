#include "attacks/poi_extraction.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mobipriv::attacks {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

/// Builds a trace dwelling at planar `site` for `dwell_s` (fix every 30 s,
/// jitter < 10 m), then moving away fast.
model::Trace DwellThenMove(const geo::LocalProjection& projection,
                           geo::Point2 site, util::Timestamp start,
                           util::Timestamp dwell_s, model::UserId user) {
  util::Rng rng(start + user);
  model::Trace trace;
  trace.set_user(user);
  for (util::Timestamp t = 0; t <= dwell_s; t += 30) {
    const geo::Point2 p{site.x + rng.Uniform(-10.0, 10.0),
                        site.y + rng.Uniform(-10.0, 10.0)};
    trace.Append({projection.Unproject(p), start + t});
  }
  // Depart at ~15 m/s for 10 fixes.
  for (int i = 1; i <= 10; ++i) {
    const geo::Point2 p{site.x + 450.0 * i, site.y};
    trace.Append({projection.Unproject(p), start + dwell_s + 30 * i});
  }
  return trace;
}

TEST(PoiExtractor, FindsALongDwell) {
  const geo::LocalProjection projection(kOrigin);
  const PoiExtractor extractor;
  const auto trace =
      DwellThenMove(projection, {500.0, 500.0}, 1000, 1800, 1);
  const auto stays = extractor.ExtractStays(trace, projection);
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_EQ(stays.front().user, 1u);
  EXPECT_GE(stays.front().departure - stays.front().arrival, 1800 - 60);
  EXPECT_LT(geo::Distance(stays.front().centroid, {500.0, 500.0}), 30.0);
  EXPECT_GT(stays.front().support, 30u);
}

TEST(PoiExtractor, IgnoresShortStops) {
  const geo::LocalProjection projection(kOrigin);
  PoiExtractionConfig config;
  config.min_duration_s = 900;
  const PoiExtractor extractor(config);
  // 5-minute stop only.
  const auto trace = DwellThenMove(projection, {0.0, 0.0}, 0, 300, 1);
  EXPECT_TRUE(extractor.ExtractStays(trace, projection).empty());
}

TEST(PoiExtractor, IgnoresConstantMovement) {
  const geo::LocalProjection projection(kOrigin);
  const PoiExtractor extractor;
  model::Trace trace;
  trace.set_user(2);
  // 10 m/s straight line, fix each 30 s: never 15 min inside 200 m.
  for (int i = 0; i < 200; ++i) {
    trace.Append({projection.Unproject({i * 300.0, 0.0}),
                  static_cast<util::Timestamp>(i * 30)});
  }
  EXPECT_TRUE(extractor.ExtractStays(trace, projection).empty());
}

TEST(PoiExtractor, SplitsTwoSeparatedDwells) {
  const geo::LocalProjection projection(kOrigin);
  const PoiExtractor extractor;
  auto trace = DwellThenMove(projection, {0.0, 0.0}, 0, 1800, 3);
  const auto second =
      DwellThenMove(projection, {5000.0, 0.0}, 4000, 1800, 3);
  for (const auto& event : second) trace.Append(event);
  const auto stays = extractor.ExtractStays(trace, projection);
  ASSERT_EQ(stays.size(), 2u);
  EXPECT_LT(stays[0].centroid.x, 100.0);
  EXPECT_GT(stays[1].centroid.x, 4900.0);
}

TEST(PoiExtractor, MergesRepeatedVisitsIntoOnePoi) {
  const geo::LocalProjection projection(kOrigin);
  const PoiExtractor extractor;
  model::Dataset dataset;
  const model::UserId user = dataset.InternUser("u");
  // Two separate traces dwelling at the same place (e.g. home on two days).
  auto t1 = DwellThenMove(projection, {100.0, 100.0}, 0, 1800, user);
  auto t2 = DwellThenMove(projection, {110.0, 95.0}, 90000, 1800, user);
  dataset.AddTrace(std::move(t1));
  dataset.AddTrace(std::move(t2));
  const auto pois = extractor.Extract(dataset, projection);
  ASSERT_EQ(pois.size(), 1u);
  EXPECT_EQ(pois.front().visits, 2u);
  EXPECT_GE(pois.front().total_dwell_s, 2 * 1700);
}

TEST(PoiExtractor, KeepsUsersSeparate) {
  const geo::LocalProjection projection(kOrigin);
  const PoiExtractor extractor;
  model::Dataset dataset;
  const auto a = dataset.InternUser("a");
  const auto b = dataset.InternUser("b");
  dataset.AddTrace(DwellThenMove(projection, {0.0, 0.0}, 0, 1800, a));
  dataset.AddTrace(DwellThenMove(projection, {0.0, 0.0}, 0, 1800, b));
  const auto pois = extractor.Extract(dataset, projection);
  ASSERT_EQ(pois.size(), 2u);
  EXPECT_NE(pois[0].user, pois[1].user);
}

TEST(PoiExtractor, EmptyInputs) {
  const geo::LocalProjection projection(kOrigin);
  const PoiExtractor extractor;
  const model::Trace empty_trace;
  const model::Dataset empty_dataset;
  EXPECT_TRUE(extractor.ExtractStays(empty_trace, projection).empty());
  EXPECT_TRUE(extractor.Extract(empty_dataset).empty());
}

TEST(PoiExtractor, DiameterBoundsTheStayExtent) {
  const geo::LocalProjection projection(kOrigin);
  PoiExtractionConfig config;
  config.max_diameter_m = 100.0;
  config.min_duration_s = 300;
  const PoiExtractor extractor(config);
  model::Trace trace;
  trace.set_user(1);
  // Slow drift: 1 m/s. Within any 100 m window the user spends 100 s
  // < 300 s, so no stay despite the low speed.
  for (int i = 0; i < 100; ++i) {
    trace.Append({projection.Unproject({i * 30.0, 0.0}),
                  static_cast<util::Timestamp>(i * 30)});
  }
  EXPECT_TRUE(extractor.ExtractStays(trace, projection).empty());
}

TEST(DatasetProjection, CenteredOnData) {
  model::Dataset dataset;
  dataset.AddTraceForUser("u", {{{45.0, 4.0}, 1}, {{46.0, 5.0}, 2}});
  const auto projection = DatasetProjection(dataset);
  EXPECT_NEAR(projection.Origin().lat, 45.5, 1e-9);
  EXPECT_NEAR(projection.Origin().lng, 4.5, 1e-9);
}

}  // namespace
}  // namespace mobipriv::attacks
