// The columnar core's contract: EventStore <-> Dataset conversions are
// exact inverses, views over both layouts expose identical data, and every
// view-based kernel (metrics, attacks, mechanisms) reproduces its AoS
// counterpart bit for bit.
#include <gtest/gtest.h>

#include <type_traits>

#include "attacks/poi_extraction.h"
#include "attacks/reident.h"
#include "mechanisms/gaussian_noise.h"
#include "mechanisms/speed_smoothing.h"
#include "metrics/coverage.h"
#include "metrics/kdelta.h"
#include "metrics/spatial_distortion.h"
#include "metrics/trajectory_stats.h"
#include "model/event_store.h"
#include "model/filters.h"
#include "model/views.h"
#include "synth/population.h"
#include "util/rng.h"

namespace mobipriv {
namespace {

// The conversion contract of model/views.h: an AoS container converts to
// its view implicitly, so one kernel signature serves every layout, but
// never from an rvalue, where the view would dangle.
static_assert(std::is_convertible_v<const model::Dataset&, model::DatasetView>);
static_assert(std::is_convertible_v<model::Dataset&, model::DatasetView>);
static_assert(std::is_convertible_v<const model::Trace&, model::TraceView>);
static_assert(std::is_convertible_v<model::Trace&, model::TraceView>);
static_assert(!std::is_constructible_v<model::DatasetView, model::Dataset&&>);
static_assert(
    !std::is_constructible_v<model::DatasetView, const model::Dataset&&>);
static_assert(!std::is_constructible_v<model::TraceView, model::Trace&&>);
static_assert(!std::is_constructible_v<model::TraceView, const model::Trace&&>);
static_assert(!std::is_convertible_v<model::Dataset, model::DatasetView>);
static_assert(!std::is_convertible_v<model::Trace, model::TraceView>);

model::Dataset SmallWorld() {
  synth::PopulationConfig config;
  config.agents = 8;
  config.days = 1;
  config.seed = 4242;
  return synth::SyntheticWorld(config).dataset();
}

void ExpectDatasetsIdentical(const model::Dataset& a,
                             const model::Dataset& b) {
  ASSERT_EQ(a.UserCount(), b.UserCount());
  for (model::UserId id = 0; id < a.UserCount(); ++id) {
    EXPECT_EQ(a.UserName(id), b.UserName(id));
  }
  ASSERT_EQ(a.TraceCount(), b.TraceCount());
  for (std::size_t t = 0; t < a.TraceCount(); ++t) {
    const model::Trace& ta = a.traces()[t];
    const model::Trace& tb = b.traces()[t];
    ASSERT_EQ(ta.user(), tb.user()) << "trace " << t;
    ASSERT_EQ(ta.size(), tb.size()) << "trace " << t;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].time, tb[i].time);
      EXPECT_EQ(ta[i].position.lat, tb[i].position.lat);
      EXPECT_EQ(ta[i].position.lng, tb[i].position.lng);
    }
  }
}

TEST(EventStore, RoundTripsDatasetExactly) {
  const model::Dataset dataset = SmallWorld();
  const model::EventStore store = model::EventStore::FromDataset(dataset);
  EXPECT_EQ(store.TraceCount(), dataset.TraceCount());
  EXPECT_EQ(store.EventCount(), dataset.EventCount());
  EXPECT_EQ(store.UserCount(), dataset.UserCount());
  ExpectDatasetsIdentical(store.ToDataset(), dataset);
}

TEST(EventStore, ColumnsAreContiguousAndOrdered) {
  model::Dataset dataset;
  dataset.AddTraceForUser("a", {{{45.0, 4.0}, 100}, {{45.1, 4.1}, 200}});
  dataset.AddTraceForUser("b", {{{46.0, 5.0}, 150}});
  const model::EventStore store = model::EventStore::FromDataset(dataset);
  ASSERT_EQ(store.EventCount(), 3u);
  EXPECT_EQ(store.lat()[0], 45.0);
  EXPECT_EQ(store.lat()[1], 45.1);
  EXPECT_EQ(store.lat()[2], 46.0);
  EXPECT_EQ(store.lng()[2], 5.0);
  EXPECT_EQ(store.time()[0], 100);
  EXPECT_EQ(store.time()[2], 150);
  EXPECT_EQ(store.TraceUser(0), 0u);
  EXPECT_EQ(store.TraceUser(1), 1u);
  EXPECT_EQ(store.TraceSize(0), 2u);
}

TEST(EventStore, ViewsOverBothLayoutsAgree) {
  const model::Dataset dataset = SmallWorld();
  const model::EventStore store = model::EventStore::FromDataset(dataset);
  const model::DatasetView aos = dataset;
  const model::DatasetView soa = store.View();
  ASSERT_EQ(aos.TraceCount(), soa.TraceCount());
  ASSERT_EQ(aos.EventCount(), soa.EventCount());
  for (std::size_t t = 0; t < aos.TraceCount(); ++t) {
    const model::TraceView& va = aos.trace(t);
    const model::TraceView& vs = soa.trace(t);
    ASSERT_EQ(va.size(), vs.size());
    EXPECT_EQ(va.user(), vs.user());
    for (std::size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va.lat(i), vs.lat(i));
      EXPECT_EQ(va.lng(i), vs.lng(i));
      EXPECT_EQ(va.time(i), vs.time(i));
    }
    EXPECT_EQ(va.LengthMeters(), vs.LengthMeters());
    EXPECT_EQ(va.Duration(), vs.Duration());
  }
}

TEST(TraceView, InterpolateMatchesTraceVersionBitwise) {
  util::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    model::Trace trace;
    trace.set_user(0);
    util::Timestamp t = 1000;
    for (int i = 0; i < 50; ++i) {
      trace.Append(model::Event{
          {rng.Uniform(44.0, 46.0), rng.Uniform(3.0, 5.0)}, t});
      t += 1 + static_cast<util::Timestamp>(rng.NextBounded(300));
    }
    const model::TraceView view = trace;
    for (int probe = 0; probe < 200; ++probe) {
      const auto query = static_cast<util::Timestamp>(
          500 + rng.NextBounded(static_cast<std::uint64_t>(t)));
      const geo::LatLng a = model::InterpolateAt(trace, query);
      const geo::LatLng b = model::InterpolateAt(view, query);
      EXPECT_EQ(a.lat, b.lat) << "query " << query;
      EXPECT_EQ(a.lng, b.lng) << "query " << query;
    }
    // Exact fix times must hit exactly too.
    for (const auto& event : trace) {
      const geo::LatLng a = model::InterpolateAt(trace, event.time);
      const geo::LatLng b = model::InterpolateAt(view, event.time);
      EXPECT_EQ(a.lat, b.lat);
      EXPECT_EQ(a.lng, b.lng);
    }
  }
}

TEST(Views, MetricsOverStoreMatchAoSMetricsBitwise) {
  const model::Dataset original = SmallWorld();
  // A published variant: noised copy (deterministic).
  util::Rng rng(7);
  const mech::GaussianNoise noise;
  const model::Dataset published = noise.Apply(original, rng);

  const model::EventStore orig_store = model::EventStore::FromDataset(original);
  const model::EventStore pub_store = model::EventStore::FromDataset(published);

  const auto aos = metrics::MeasureDistortion(original, published);
  const auto soa =
      metrics::MeasureDistortion(orig_store.View(), pub_store.View());
  EXPECT_EQ(aos.ToString(), soa.ToString());
  EXPECT_EQ(aos.compared_traces, soa.compared_traces);
  EXPECT_EQ(aos.skipped_traces, soa.skipped_traces);
  EXPECT_EQ(aos.synchronized_m.mean, soa.synchronized_m.mean);
  EXPECT_EQ(aos.path_m.mean, soa.path_m.mean);

  const auto stats_aos = metrics::CompareTrajectoryStats(original, published);
  const auto stats_soa =
      metrics::CompareTrajectoryStats(orig_store.View(), pub_store.View());
  EXPECT_EQ(stats_aos.ToString(), stats_soa.ToString());
  EXPECT_EQ(stats_aos.trip_length_emd, stats_soa.trip_length_emd);
  EXPECT_EQ(stats_aos.gyration_relative_error,
            stats_soa.gyration_relative_error);

  const auto kd_aos = metrics::MeasureKDeltaAnonymity(published);
  const auto kd_soa = metrics::MeasureKDeltaAnonymity(pub_store.View());
  ASSERT_EQ(kd_aos.per_trace.size(), kd_soa.per_trace.size());
  for (std::size_t i = 0; i < kd_aos.per_trace.size(); ++i) {
    EXPECT_EQ(kd_aos.per_trace[i].k, kd_soa.per_trace[i].k);
  }

  EXPECT_EQ(metrics::CoverageJaccard(original, published),
            metrics::CoverageJaccard(orig_store.View(), pub_store.View()));
  EXPECT_EQ(metrics::CellFootprint(original),
            metrics::CellFootprint(orig_store.View()));
}

TEST(Views, AttacksOverStoreMatchAoSAttacksBitwise) {
  const model::Dataset dataset = SmallWorld();
  const model::EventStore store = model::EventStore::FromDataset(dataset);
  const geo::LocalProjection projection = attacks::DatasetProjection(dataset);

  const attacks::PoiExtractor extractor;
  const auto aos_pois = extractor.Extract(dataset, projection);
  const auto soa_pois = extractor.Extract(store.View(), projection);
  ASSERT_EQ(aos_pois.size(), soa_pois.size());
  for (std::size_t i = 0; i < aos_pois.size(); ++i) {
    EXPECT_EQ(aos_pois[i].user, soa_pois[i].user);
    EXPECT_EQ(aos_pois[i].centroid.x, soa_pois[i].centroid.x);
    EXPECT_EQ(aos_pois[i].centroid.y, soa_pois[i].centroid.y);
    EXPECT_EQ(aos_pois[i].visits, soa_pois[i].visits);
    EXPECT_EQ(aos_pois[i].total_dwell_s, soa_pois[i].total_dwell_s);
  }

  const attacks::ReidentificationAttack attack;
  const auto aos_profiles = attack.BuildProfiles(dataset, projection);
  const auto soa_profiles = attack.BuildProfiles(store.View(), projection);
  ASSERT_EQ(aos_profiles.size(), soa_profiles.size());
  const auto aos_links = attack.Attack(aos_profiles, dataset, projection);
  const auto soa_links = attack.Attack(soa_profiles, store.View(), projection);
  ASSERT_EQ(aos_links.size(), soa_links.size());
  for (std::size_t i = 0; i < aos_links.size(); ++i) {
    EXPECT_EQ(aos_links[i].true_user, soa_links[i].true_user);
    EXPECT_EQ(aos_links[i].predicted_user, soa_links[i].predicted_user);
    EXPECT_EQ(aos_links[i].linkable, soa_links[i].linkable);
    EXPECT_EQ(aos_links[i].distance, soa_links[i].distance);
  }
}

TEST(Views, MechanismOutputIndependentOfInputLayout) {
  // The same data viewed as AoS (through Apply) and as columns must
  // publish the same bytes and advance the rng alike.
  const model::Dataset dataset = SmallWorld();
  const model::EventStore store = model::EventStore::FromDataset(dataset);
  const mech::SpeedSmoothing mechanism;
  util::Rng rng_a(31337);
  util::Rng rng_b(31337);
  const model::Dataset via_dataset = mechanism.Apply(dataset, rng_a);
  const model::Dataset via_columns =
      mechanism.ApplyToStore(store.View(), rng_b).ToDataset();
  ExpectDatasetsIdentical(via_dataset, via_columns);
  EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());
}

TEST(Views, ImplicitConversionIsZeroCopy) {
  // A kernel called with a Dataset reads its events in place: neither a
  // full-dataset nor a per-trace copy is made.
  const model::Dataset dataset = SmallWorld();
  const std::size_t full_before = model::FullMaterializeCount();
  const std::size_t traces_before = model::TraceCopyCount();
  EXPECT_EQ(metrics::TripLengths(dataset).size(), dataset.TraceCount());
  EXPECT_EQ(model::FullMaterializeCount(), full_before);
  EXPECT_EQ(model::TraceCopyCount(), traces_before);
  const model::DatasetView view = dataset;
  EXPECT_EQ(view.names().data(), dataset.names().data());
}

TEST(Views, MaterializeRoundTrips) {
  const model::Dataset dataset = SmallWorld();
  ExpectDatasetsIdentical(model::DatasetView(dataset).Materialize(),
                          dataset);
}

}  // namespace
}  // namespace mobipriv
