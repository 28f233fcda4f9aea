// Failure injection: every mechanism, attack and metric must survive
// pathological datasets without crashing, hanging or producing invalid
// output — all-duplicate points, zero-duration traces, single events,
// backwards-ordered ingestion, extreme coordinates, huge time gaps.
#include <gtest/gtest.h>

#include <limits>

#include "attacks/home_work.h"
#include "attacks/poi_extraction.h"
#include "attacks/reident.h"
#include "attacks/speed_fingerprint.h"
#include "core/experiment.h"
#include "metrics/coverage.h"
#include "metrics/heatmap.h"
#include "metrics/kdelta.h"
#include "metrics/range_queries.h"
#include "metrics/spatial_distortion.h"
#include "metrics/trajectory_stats.h"
#include "model/filters.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/registry.h"
#include "privacy/certification.h"

namespace mobipriv {
namespace {

/// The zoo of pathological datasets, each with a name for diagnostics.
std::vector<std::pair<std::string, model::Dataset>> PathologicalZoo() {
  std::vector<std::pair<std::string, model::Dataset>> zoo;

  zoo.emplace_back("empty", model::Dataset{});

  {
    model::Dataset d;
    d.AddTraceForUser("u", {{{45.764, 4.8357}, 1000}});
    zoo.emplace_back("single_event", std::move(d));
  }
  {
    model::Dataset d;
    // 100 identical fixes: zero length, positive duration.
    std::vector<model::Event> events;
    for (int i = 0; i < 100; ++i) {
      events.push_back({{45.764, 4.8357},
                        static_cast<util::Timestamp>(1000 + i * 30)});
    }
    d.AddTraceForUser("u", std::move(events));
    zoo.emplace_back("all_duplicates", std::move(d));
  }
  {
    model::Dataset d;
    // Zero duration: all fixes share one timestamp, positions differ.
    std::vector<model::Event> events;
    for (int i = 0; i < 50; ++i) {
      events.push_back({{45.764 + 0.001 * i, 4.8357}, 1000});
    }
    d.AddTraceForUser("u", std::move(events));
    zoo.emplace_back("zero_duration", std::move(d));
  }
  {
    model::Dataset d;
    // Extreme but valid coordinates near the antimeridian and poles.
    d.AddTraceForUser("u", {{{89.9, 179.9}, 0},
                            {{89.8, -179.9}, 60},
                            {{-89.9, 0.0}, 120}});
    zoo.emplace_back("extreme_coordinates", std::move(d));
  }
  {
    model::Dataset d;
    // Decade-long gap between two normal sessions.
    std::vector<model::Event> events;
    for (int i = 0; i < 20; ++i) {
      events.push_back({{45.764 + 0.0005 * i, 4.8357},
                        static_cast<util::Timestamp>(i * 60)});
    }
    for (int i = 0; i < 20; ++i) {
      events.push_back({{45.764 + 0.0005 * i, 4.8357},
                        static_cast<util::Timestamp>(315360000 + i * 60)});
    }
    d.AddTraceForUser("u", std::move(events));
    zoo.emplace_back("decade_gap", std::move(d));
  }
  {
    model::Dataset d;
    // Two users at exactly the same place and times (perfect co-location).
    std::vector<model::Event> events;
    for (int i = 0; i < 30; ++i) {
      events.push_back({{45.764 + 0.0002 * i, 4.8357},
                        static_cast<util::Timestamp>(i * 30)});
    }
    d.AddTraceForUser("a", events);
    d.AddTraceForUser("b", std::move(events));
    zoo.emplace_back("perfect_twins", std::move(d));
  }
  return zoo;
}

/// Traces spanning more than INT64_MAX seconds, from near INT64_MIN/2 to
/// near INT64_MAX/2: one with an interior fix at 0, one without. They are
/// not in the zoo because two time-grid kernels, kdelta's and wait4me's
/// resampling grids, step once per grid cell across the span.
model::Dataset ExtremeTimestamps() {
  constexpr util::Timestamp kMin = std::numeric_limits<util::Timestamp>::min();
  constexpr util::Timestamp kMax = std::numeric_limits<util::Timestamp>::max();
  model::Dataset d;
  d.AddTraceForUser("u", {{{45.764, 4.8357}, kMin / 2 - 1000},
                          {{45.770, 4.8400}, 0},
                          {{45.776, 4.8443}, kMax / 2 + 1000}});
  d.AddTraceForUser("v", {{{45.764, 4.8357}, kMin / 2 - 1000},
                          {{45.776, 4.8443}, kMax / 2 + 1000}});
  return d;
}

TEST(PathologicalInputs, ExtremeTimestampsDoNotOverflow) {
  // Every time difference across the span is computed exactly (the UBSan
  // suite run turns a signed overflow here into a failure).
  const model::Dataset dataset = ExtremeTimestamps();
  for (const model::Trace& trace : dataset.traces()) {
    const model::TraceView view(trace);
    for (const util::Timestamp t :
         {trace.front().time + 1, util::Timestamp{-1}, util::Timestamp{1},
          trace.back().time - 1}) {
      const geo::LatLng a = model::InterpolateAt(trace, t);
      const geo::LatLng b = model::InterpolateAt(view, t);
      EXPECT_TRUE(a.IsValid()) << t;
      EXPECT_EQ(a.lat, b.lat) << t;
      EXPECT_EQ(a.lng, b.lng) << t;
    }
  }
  // Halfway through the interior fix's first leg, and through the
  // two-fix trace, sits halfway between the fixes.
  const model::TraceView u(dataset.traces()[0]);
  const model::TraceView v(dataset.traces()[1]);
  EXPECT_NEAR(model::InterpolateAt(u, u.time(0) / 2).lat, 45.767, 1e-9);
  EXPECT_NEAR(model::InterpolateAt(v, 0).lat, 45.770, 1e-9);

  const auto distortion = metrics::MeasureDistortion(dataset, dataset);
  EXPECT_EQ(distortion.compared_traces, 2u);
  EXPECT_EQ(distortion.synchronized_m.max, 0.0);
  EXPECT_EQ(distortion.path_m.max, 0.0);

  for (const char* spec : {"speed_smoothing", "ours[speed]"}) {
    util::Rng rng(1);
    const model::Dataset output =
        mech::CreateMechanism(spec)->Apply(dataset, rng);
    for (const auto& published : output.traces()) {
      EXPECT_TRUE(published.IsTimeOrdered()) << spec;
    }
  }
}

TEST(PathologicalInputs, HomeWorkFinishesOnExtremeTimestamps) {
  // ExtremeTimestamps() plus two users who stay put for half the range
  // each: stays of ~2^62 s, whose daily-window overlap used to take one
  // loop iteration per day (~5e13) and now takes constant time.
  constexpr util::Timestamp kMin = std::numeric_limits<util::Timestamp>::min();
  constexpr util::Timestamp kMax = std::numeric_limits<util::Timestamp>::max();
  model::Dataset dataset = ExtremeTimestamps();
  dataset.AddTraceForUser("w", {{{45.764, 4.8357}, kMin / 2 - 1000},
                                {{45.764, 4.8357}, -1}});
  dataset.AddTraceForUser("x", {{{45.776, 4.8443}, 0},
                                {{45.776, 4.8443}, kMax / 2 + 1000}});
  const auto frame = attacks::DatasetProjection(dataset);
  std::vector<attacks::HomeWorkGuess> guesses;
  ASSERT_NO_THROW(guesses = attacks::HomeWorkAttack().Infer(dataset, frame));
  ASSERT_EQ(guesses.size(), 4u);
  for (const attacks::HomeWorkGuess& guess : guesses) {
    const bool stays_put = guess.user >= 2;
    EXPECT_EQ(guess.home.has_value(), stays_put) << guess.user;
    EXPECT_EQ(guess.work.has_value(), stays_put) << guess.user;
  }
}

TEST(PathologicalInputs, AllMechanismsSurviveTheZoo) {
  for (const std::string& spec : core::StandardRosterSpecs({0.01})) {
    const auto mechanism = mech::CreateMechanism(spec);
    for (const auto& [name, dataset] : PathologicalZoo()) {
      util::Rng rng(1);
      model::Dataset output;
      ASSERT_NO_THROW(output = mechanism->Apply(dataset, rng))
          << mechanism->Name() << " on " << name;
      for (const auto& trace : output.traces()) {
        EXPECT_TRUE(trace.IsTimeOrdered())
            << mechanism->Name() << " on " << name;
        for (const auto& event : trace) {
          EXPECT_TRUE(event.position.IsValid())
              << mechanism->Name() << " on " << name;
        }
      }
    }
  }
}

TEST(PathologicalInputs, AttacksSurviveTheZoo) {
  const attacks::PoiExtractor extractor;
  const attacks::ReidentificationAttack reident;
  const attacks::HomeWorkAttack home_work;
  const attacks::SpeedFingerprintAttack fingerprint;
  for (const auto& [name, dataset] : PathologicalZoo()) {
    SCOPED_TRACE(name);
    const auto frame = attacks::DatasetProjection(dataset);
    ASSERT_NO_THROW((void)extractor.Extract(dataset, frame));
    ASSERT_NO_THROW({
      const auto profiles = reident.BuildProfiles(dataset, frame);
      (void)reident.Attack(profiles, dataset, frame);
    });
    ASSERT_NO_THROW((void)home_work.Infer(dataset, frame));
    ASSERT_NO_THROW({
      const auto profiles = fingerprint.BuildProfiles(dataset);
      (void)fingerprint.Attack(profiles, dataset);
    });
  }
}

TEST(PathologicalInputs, MetricsSurviveTheZoo) {
  for (const auto& [name, dataset] : PathologicalZoo()) {
    SCOPED_TRACE(name);
    ASSERT_NO_THROW((void)metrics::MeasureDistortion(dataset, dataset));
    ASSERT_NO_THROW((void)metrics::CoverageJaccard(dataset, dataset));
    ASSERT_NO_THROW((void)metrics::HeatmapSimilarity(dataset, dataset));
    ASSERT_NO_THROW((void)metrics::MeasureKDeltaAnonymity(dataset));
    ASSERT_NO_THROW((void)metrics::CompareTrajectoryStats(dataset, dataset));
    ASSERT_NO_THROW({
      util::Rng rng(1);
      const auto queries = metrics::SampleQueries(
          dataset, metrics::RangeQueryConfig{}, rng);
      (void)metrics::MeasureRangeQueryError(dataset, dataset, queries);
    });
    ASSERT_NO_THROW((void)privacy::CertifyConstantSpeed(dataset));
  }
}

TEST(PathologicalInputs, MetricsOnSelfAreReflexive) {
  // Identity comparisons must score "identical" even for weird data.
  for (const auto& [name, dataset] : PathologicalZoo()) {
    SCOPED_TRACE(name);
    EXPECT_DOUBLE_EQ(metrics::CoverageJaccard(dataset, dataset), 1.0);
    if (dataset.EventCount() > 0) {
      EXPECT_NEAR(metrics::HeatmapSimilarity(dataset, dataset), 1.0, 1e-9);
    }
    // Synchronized distortion is reflexive except for physically
    // impossible traces holding several positions at one instant —
    // interpolation "at time t" is ambiguous there by definition.
    if (name != "zero_duration") {
      const auto distortion = metrics::MeasureDistortion(dataset, dataset);
      EXPECT_DOUBLE_EQ(distortion.synchronized_m.max, 0.0);
    }
    // Every range query counts the same events on both sides.
    util::Rng rng(1);
    const auto queries =
        metrics::SampleQueries(dataset, metrics::RangeQueryConfig{}, rng);
    const auto report =
        metrics::MeasureRangeQueryError(dataset, dataset, queries);
    EXPECT_EQ(report.queries, queries.size());
    EXPECT_EQ(report.relative_error.count, queries.size());
    EXPECT_DOUBLE_EQ(report.relative_error.max, 0.0);
  }
}

TEST(PathologicalInputs, MixZoneSurvivesTheZoo) {
  // Every zoo dataset through the mix-zone stage: no throw, every input
  // event either published or suppressed, and the stand-alone encounter
  // scan agreeing with the report. Two identical traces are one
  // continuous encounter: the stage must handle a trace that never
  // leaves the zone (suppressing it entirely is legal).
  const mech::MixZone mixzone;
  for (const auto& [name, dataset] : PathologicalZoo()) {
    SCOPED_TRACE(name);
    util::Rng rng(1);
    mech::MixZoneReport report;
    model::EventStore output;
    ASSERT_NO_THROW(output =
                        mixzone.ApplyToStoreWithReport(dataset, rng, report));
    EXPECT_EQ(output.EventCount() + report.suppressed_events,
              dataset.EventCount());
    EXPECT_EQ(mixzone.CountEncounters(dataset), report.encounters);
    if (name == "perfect_twins") {
      EXPECT_GT(report.encounters, 0u);
    }
  }
}

}  // namespace
}  // namespace mobipriv
