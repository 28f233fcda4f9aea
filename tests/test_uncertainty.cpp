#include "privacy/uncertainty.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "model/event_store.h"
#include "privacy/evaluators.h"
#include "synth/population.h"

namespace mobipriv::privacy {
namespace {

TEST(AnonymitySetEntropy, KnownValues) {
  EXPECT_DOUBLE_EQ(AnonymitySetEntropyBits(0), 0.0);
  EXPECT_DOUBLE_EQ(AnonymitySetEntropyBits(1), 0.0);
  EXPECT_DOUBLE_EQ(AnonymitySetEntropyBits(2), 1.0);
  EXPECT_DOUBLE_EQ(AnonymitySetEntropyBits(4), 2.0);
  EXPECT_NEAR(AnonymitySetEntropyBits(3), 1.585, 0.001);
}

TEST(MeasureMixingUncertainty, SyntheticReport) {
  model::Dataset dataset;
  dataset.InternUser("a");
  dataset.InternUser("b");
  dataset.InternUser("c");
  mech::MixZoneReport report;
  report.occurrence_details.push_back({0, {0, 1}, true});      // 1 bit
  report.occurrence_details.push_back({0, {0, 1, 2}, false});  // log2(3)
  const auto out = MeasureMixingUncertainty(dataset, report);
  EXPECT_EQ(out.occurrences, 2u);
  EXPECT_NEAR(out.total_bits, 1.0 + 1.585, 0.001);
  ASSERT_EQ(out.per_user.size(), 3u);
  EXPECT_EQ(out.per_user[0].traversals, 2u);   // user a in both
  EXPECT_NEAR(out.per_user[0].cumulative_bits, 2.585, 0.001);
  EXPECT_EQ(out.per_user[2].traversals, 1u);   // user c in one
  EXPECT_NEAR(out.per_user[2].cumulative_bits, 1.585, 0.001);
  EXPECT_FALSE(out.ToString().empty());
}

TEST(MeasureMixingUncertainty, UsersWithoutMixingGetZero) {
  model::Dataset dataset;
  dataset.InternUser("a");
  dataset.InternUser("lonely");
  mech::MixZoneReport report;
  report.occurrence_details.push_back({0, {0}, false});
  const auto out = MeasureMixingUncertainty(dataset, report);
  ASSERT_EQ(out.per_user.size(), 2u);
  EXPECT_DOUBLE_EQ(out.per_user[1].cumulative_bits, 0.0);
  EXPECT_EQ(out.per_user[1].traversals, 0u);
  // A 1-user "occurrence" contributes zero bits.
  EXPECT_DOUBLE_EQ(out.total_bits, 0.0);
}

TEST(MeasureMixingUncertainty, EndToEndWithMixZone) {
  synth::PopulationConfig config;
  config.agents = 6;
  config.days = 1;
  config.seed = 99;
  config.force_shared_hub = true;
  const synth::SyntheticWorld world(config);
  const mech::MixZone mixzone;
  util::Rng rng(1);
  mech::MixZoneReport report;
  (void)mixzone.ApplyToStoreWithReport(world.dataset(), rng, report);
  const auto out = MeasureMixingUncertainty(world.dataset(), report);
  EXPECT_EQ(out.occurrences, report.occurrence_details.size());
  EXPECT_EQ(out.per_user.size(), 6u);
  if (out.occurrences > 0) {
    EXPECT_GT(out.total_bits, 0.0);
    EXPECT_GE(out.mean_bits_per_occurrence, 1.0);  // >= 2 users per occ.
  }
  // Occurrence details are consistent with the aggregate counters.
  std::size_t swapped = 0;
  for (const auto& occ : report.occurrence_details) {
    EXPECT_GE(occ.users.size(), 2u);
    if (occ.swapped) ++swapped;
    EXPECT_LT(occ.zone_index, report.zones.size());
  }
  EXPECT_EQ(swapped, report.swaps_applied);
}

// One anonymity-set definition: distinct users per detected occurrence.
// On each side the evaluator scores what MeasureMixingUncertainty scores
// over MixZone::Detect, whatever the seed, and a zone's max_anonymity_set
// is its largest occurrence's distinct-user count.
TEST(UncertaintyEvaluator, ScoresDetectedOccurrencesByDistinctUsers) {
  synth::PopulationConfig config;
  config.agents = 60;
  config.days = 1;
  config.seed = 31;
  const synth::SyntheticWorld world(config);
  const model::DatasetView original = world.dataset();
  const mech::MixZone mixzone;
  util::Rng rng(5);
  const model::EventStore published = mixzone.ApplyToStore(original, rng);

  const auto bits = [&](const model::DatasetView& view) {
    return MeasureMixingUncertainty(view, mixzone.Detect(view)).total_bits;
  };
  const double potential = bits(original);
  const double residual = bits(published.View());
  EXPECT_GT(potential, 0.0);
  const UncertaintyEvaluator evaluator;
  const geo::LocalProjection frame(original.BoundingBox().Center());
  const auto first = evaluator.Evaluate({original, published.View(), frame, 1});
  const auto second =
      evaluator.Evaluate({original, published.View(), frame, 99});
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0].metric, "mix_potential_bits");
  EXPECT_EQ(first[0].value, potential);
  EXPECT_EQ(first[2].metric, "mix_residual_bits");
  EXPECT_EQ(first[2].value, residual);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].metric, first[i].metric);
    EXPECT_EQ(second[i].value, first[i].value) << first[i].metric;
  }

  mech::MixZoneReport report;
  util::Rng apply_rng(5);
  (void)mixzone.ApplyToStoreWithReport(original, apply_rng, report);
  std::vector<std::size_t> largest(report.zones.size(), 0);
  for (const auto& occ : report.occurrence_details) {
    largest[occ.zone_index] =
        std::max(largest[occ.zone_index], occ.users.size());
  }
  for (std::size_t z = 0; z < report.zones.size(); ++z) {
    EXPECT_EQ(report.zones[z].max_anonymity_set, largest[z]) << "zone " << z;
  }
}

}  // namespace
}  // namespace mobipriv::privacy
