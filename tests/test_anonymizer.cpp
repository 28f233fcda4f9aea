// Integration tests of the full pipeline (core::Anonymizer): the paper's
// end-to-end privacy and utility claims on synthetic worlds.
#include "core/anonymizer.h"

#include <gtest/gtest.h>

#include "attacks/poi_extraction.h"
#include "metrics/coverage.h"
#include "metrics/heatmap.h"
#include "metrics/poi_metrics.h"
#include "model/stats.h"
#include "synth/population.h"

namespace mobipriv::core {
namespace {

synth::PopulationConfig SmallWorldConfig() {
  synth::PopulationConfig config;
  config.agents = 6;
  config.days = 1;
  config.seed = 2015;
  return config;
}

TEST(Anonymizer, PipelinePreservesUserIdSpace) {
  const synth::SyntheticWorld world(SmallWorldConfig());
  const Anonymizer anonymizer;
  util::Rng rng(1);
  const model::Dataset published = anonymizer.Apply(world.dataset(), rng);
  EXPECT_EQ(published.UserCount(), world.dataset().UserCount());
  EXPECT_GT(published.EventCount(), 0u);
  for (const auto& trace : published.traces()) {
    EXPECT_TRUE(trace.IsTimeOrdered());
    EXPECT_LT(trace.user(), published.UserCount());
  }
}

TEST(Anonymizer, PublishedTracesHaveConstantSpeed) {
  const synth::SyntheticWorld world(SmallWorldConfig());
  AnonymizerConfig config;
  config.enable_mixzones = false;  // isolate stage 1
  const Anonymizer anonymizer(config);
  util::Rng rng(1);
  const model::Dataset published = anonymizer.Apply(world.dataset(), rng);
  ASSERT_GT(published.TraceCount(), 0u);
  for (const auto& trace : published.traces()) {
    if (trace.size() < 4) continue;
    EXPECT_LT(model::SpeedCoefficientOfVariation(trace), 0.2)
        << "trace of user " << trace.user();
  }
}

TEST(Anonymizer, HidesPoisEndToEnd) {
  // The paper's headline claim: the attack that finds nearly every POI in
  // the raw data finds none in the publication.
  const synth::SyntheticWorld world(SmallWorldConfig());
  const Anonymizer anonymizer;
  util::Rng rng(7);
  const model::Dataset published = anonymizer.Apply(world.dataset(), rng);

  const attacks::PoiExtractor extractor;
  const auto frame = attacks::DatasetProjection(world.dataset());
  const auto truth = metrics::DistinctTruePlaces(
      world.ground_truth(), world.projection(), frame);
  const auto raw_score = metrics::ScorePoiExtraction(
      extractor.Extract(world.dataset(), frame), truth);
  const auto published_score = metrics::ScorePoiExtraction(
      extractor.Extract(published, frame), truth);
  EXPECT_GT(raw_score.Recall(), 0.7) << "attack must work on raw data";
  EXPECT_LT(published_score.Recall(), 0.05)
      << "attack must fail on published data";
}

TEST(Anonymizer, ReportAccounting) {
  const synth::SyntheticWorld world(SmallWorldConfig());
  const Anonymizer anonymizer;
  util::Rng rng(3);
  PipelineReport report;
  const model::Dataset published =
      anonymizer.ApplyToStoreWithReport(world.dataset(), rng, report)
          .ToDataset();
  EXPECT_EQ(report.input_events, world.dataset().EventCount());
  EXPECT_EQ(report.input_traces, world.dataset().TraceCount());
  EXPECT_EQ(report.output_events, published.EventCount());
  EXPECT_LE(report.output_events, report.after_smoothing_events);
  EXPECT_EQ(report.after_smoothing_events - report.mixzone.suppressed_events,
            report.output_events);
  EXPECT_FALSE(report.ToString().empty());
  // The publication keeps some events but not all, and its utility scores
  // against the original stay in range.
  EXPECT_GT(published.EventCount(), 0u);
  EXPECT_LT(published.EventCount(), world.dataset().EventCount());
  const double coverage = metrics::CoverageJaccard(world.dataset(), published);
  EXPECT_GE(coverage, 0.0);
  EXPECT_LE(coverage, 1.0);
  const double heatmap = metrics::HeatmapSimilarity(world.dataset(), published);
  EXPECT_GE(heatmap, 0.0);
  EXPECT_LE(heatmap, 1.0);
}

TEST(Anonymizer, StagesCanBeDisabled) {
  const synth::SyntheticWorld world(SmallWorldConfig());
  AnonymizerConfig both_off;
  both_off.enable_speed_smoothing = false;
  both_off.enable_mixzones = false;
  const Anonymizer anonymizer(both_off);
  util::Rng rng(1);
  const model::Dataset published = anonymizer.Apply(world.dataset(), rng);
  EXPECT_EQ(published.EventCount(), world.dataset().EventCount());
  EXPECT_EQ(anonymizer.Name(), "ours[]");
  AnonymizerConfig speed_only;
  speed_only.enable_mixzones = false;
  EXPECT_EQ(Anonymizer(speed_only).Name(), "ours[speed]");
  EXPECT_EQ(Anonymizer{}.Name(), "ours[speed+mix]");
}

TEST(Anonymizer, DeterministicGivenSeed) {
  const synth::SyntheticWorld world(SmallWorldConfig());
  const Anonymizer anonymizer;
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const model::Dataset a = anonymizer.Apply(world.dataset(), rng_a);
  const model::Dataset b = anonymizer.Apply(world.dataset(), rng_b);
  ASSERT_EQ(a.TraceCount(), b.TraceCount());
  ASSERT_EQ(a.EventCount(), b.EventCount());
  for (std::size_t i = 0; i < a.TraceCount(); ++i) {
    EXPECT_EQ(a.traces()[i].user(), b.traces()[i].user());
    EXPECT_EQ(a.traces()[i].front(), b.traces()[i].front());
    EXPECT_EQ(a.traces()[i].back(), b.traces()[i].back());
  }
}

}  // namespace
}  // namespace mobipriv::core
