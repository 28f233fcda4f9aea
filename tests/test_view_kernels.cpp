// The privacy and adversary kernels take views, so the same data must give
// the same answer whatever layout backs the view: an AoS Dataset, or the
// columns of EventStore::FromDataset(d). Every field is compared, doubles
// bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "attacks/speed_fingerprint.h"
#include "attacks/timing_attack.h"
#include "attacks/tracker.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "model/event_store.h"
#include "model/stats.h"
#include "privacy/certification.h"
#include "privacy/uncertainty.h"
#include "synth/population.h"
#include "util/rng.h"

namespace mobipriv {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << "index " << i;
  }
}

/// Two straight crossing traces through the origin (the tracker and
/// timing-attack fixture): A west->east, B south->north, both at 2 m/s,
/// crossing at t = 500.
model::Dataset CrossingPair() {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  const auto a = dataset.InternUser("A");
  const auto b = dataset.InternUser("B");
  model::Trace ta;
  ta.set_user(a);
  model::Trace tb;
  tb.set_user(b);
  for (int i = 0; i <= 100; ++i) {
    const double s = -1000.0 + 20.0 * i;
    const auto t = static_cast<util::Timestamp>(i * 10);
    ta.Append({projection.Unproject({s, 0.0}), t});
    tb.Append({projection.Unproject({0.0, s}), t});
  }
  dataset.AddTrace(std::move(ta));
  dataset.AddTrace(std::move(tb));
  return dataset;
}

/// The certification fixture: a small raw world.
model::Dataset RawWorld() {
  synth::PopulationConfig config;
  config.agents = 5;
  config.days = 1;
  config.seed = 321;
  const synth::SyntheticWorld world(config);
  return world.dataset().Clone();
}

/// A mix-zone publication of the crossing pair, kept both as the store the
/// mechanism returned and as its AoS copy.
struct CrossingPublication {
  model::Dataset original = CrossingPair();
  model::EventStore original_store = model::EventStore::FromDataset(original);
  mech::MixZoneReport report;
  model::EventStore published;
  model::Dataset published_aos;

  explicit CrossingPublication(std::uint64_t seed) {
    const mech::MixZone mixzone;  // radius 150 m
    util::Rng rng(seed);
    published = mixzone.ApplyToStoreWithReport(original, rng, report);
    published_aos = published.ToDataset();
  }
};

TEST(ViewKernels, TrackerIndependentOfLayout) {
  const CrossingPublication pub(4);
  ASSERT_GE(pub.report.occurrences, 1u);
  const geo::LocalProjection projection(kOrigin);
  const attacks::MultiTargetTracker tracker;
  const geo::Point2 center = pub.report.zones.front().center;
  const auto aos = tracker.TrackThroughZone(pub.original, pub.published_aos,
                                            projection, center, 150.0);
  const auto soa =
      tracker.TrackThroughZone(pub.original_store.View(), pub.published.View(),
                               projection, center, 150.0);
  ASSERT_EQ(aos.size(), 2u);
  ASSERT_EQ(aos.size(), soa.size());
  for (std::size_t i = 0; i < aos.size(); ++i) {
    EXPECT_EQ(aos[i].target, soa[i].target);
    EXPECT_EQ(aos[i].truth, soa[i].truth);
    EXPECT_EQ(aos[i].followed, soa[i].followed);
    EXPECT_EQ(aos[i].lost, soa[i].lost);
    EXPECT_EQ(Bits(aos[i].error_m), Bits(soa[i].error_m));
  }
}

TEST(ViewKernels, TimingAttackIndependentOfLayout) {
  const CrossingPublication pub(1);
  ASSERT_GE(pub.report.occurrences, 1u);
  const geo::LocalProjection projection(kOrigin);
  const attacks::TimingAttack attack;
  const geo::Point2 center = pub.report.zones.front().center;
  const auto aos = attack.ObserveCrossings(pub.original, pub.published_aos,
                                           projection, center, 150.0);
  const auto soa =
      attack.ObserveCrossings(pub.original_store.View(), pub.published.View(),
                              projection, center, 150.0);
  ASSERT_EQ(aos.size(), 2u);
  ASSERT_EQ(aos.size(), soa.size());
  for (std::size_t i = 0; i < aos.size(); ++i) {
    EXPECT_EQ(aos[i].entry_pseudonym, soa[i].entry_pseudonym);
    EXPECT_EQ(aos[i].entry_time, soa[i].entry_time);
    EXPECT_EQ(aos[i].exit_time, soa[i].exit_time);
    EXPECT_EQ(aos[i].true_exit, soa[i].true_exit);
  }
}

TEST(ViewKernels, CertificationIndependentOfLayout) {
  const model::Dataset raw = RawWorld();
  const mech::SpeedSmoothing smoothing;
  util::Rng rng(1);
  const model::Dataset smoothed = smoothing.Apply(raw, rng);
  // The raw world yields violations of every kind the screen finds; the
  // smoothed one certifies. Both must agree across layouts.
  for (const model::Dataset* dataset : {&raw, &smoothed}) {
    const model::EventStore store = model::EventStore::FromDataset(*dataset);
    const auto aos = privacy::CertifyConstantSpeed(*dataset);
    const auto soa = privacy::CertifyConstantSpeed(store.View());
    EXPECT_GT(aos.traces_checked, 0u);
    EXPECT_EQ(aos.traces_checked, soa.traces_checked);
    EXPECT_EQ(aos.traces_exempt, soa.traces_exempt);
    ASSERT_EQ(aos.violations.size(), soa.violations.size());
    for (std::size_t i = 0; i < aos.violations.size(); ++i) {
      EXPECT_EQ(aos.violations[i].kind, soa.violations[i].kind);
      EXPECT_EQ(aos.violations[i].trace_index, soa.violations[i].trace_index);
      EXPECT_EQ(aos.violations[i].user, soa.violations[i].user);
      EXPECT_EQ(Bits(aos.violations[i].magnitude),
                Bits(soa.violations[i].magnitude));
    }
  }
  EXPECT_FALSE(privacy::CertifyConstantSpeed(raw).Certified());
}

TEST(ViewKernels, TraceStatsIndependentOfLayout) {
  const model::Dataset raw = RawWorld();
  const mech::SpeedSmoothing smoothing;
  util::Rng rng(1);
  const model::Dataset smoothed = smoothing.Apply(raw, rng);
  const model::EventStore store = model::EventStore::FromDataset(smoothed);
  ASSERT_EQ(store.TraceCount(), smoothed.TraceCount());
  for (std::size_t t = 0; t < smoothed.TraceCount(); ++t) {
    const model::Trace& trace = smoothed.traces()[t];
    const model::TraceView view = store.View(t);
    EXPECT_EQ(trace.IsTimeOrdered(), view.IsTimeOrdered());
    EXPECT_EQ(Bits(trace.LengthMeters()), Bits(view.LengthMeters()));
    EXPECT_EQ(Bits(model::SpeedCoefficientOfVariation(trace)),
              Bits(model::SpeedCoefficientOfVariation(view)));
    ExpectBitwiseEqual(model::InterEventDistances(trace),
                       model::InterEventDistances(view));
    ExpectBitwiseEqual(model::InterEventIntervals(trace),
                       model::InterEventIntervals(view));
    ExpectBitwiseEqual(model::SpeedProfile(trace), model::SpeedProfile(view));
  }
  const model::DatasetStats aos = model::ComputeDatasetStats(smoothed);
  const model::DatasetStats soa = model::ComputeDatasetStats(store.View());
  EXPECT_EQ(aos.ToString(), soa.ToString());
  EXPECT_EQ(Bits(aos.speed_mps.mean), Bits(soa.speed_mps.mean));
  EXPECT_EQ(Bits(aos.trace_length_m.max), Bits(soa.trace_length_m.max));
}

TEST(ViewKernels, UncertaintyIndependentOfLayout) {
  synth::PopulationConfig config;
  config.agents = 6;
  config.days = 1;
  config.seed = 99;
  config.force_shared_hub = true;
  const synth::SyntheticWorld world(config);
  const model::EventStore store =
      model::EventStore::FromDataset(world.dataset());
  const mech::MixZone mixzone;
  util::Rng rng(1);
  mech::MixZoneReport report;
  (void)mixzone.ApplyToStoreWithReport(world.dataset(), rng, report);
  const auto aos = privacy::MeasureMixingUncertainty(world.dataset(), report);
  const auto soa = privacy::MeasureMixingUncertainty(store.View(), report);
  EXPECT_EQ(aos.occurrences, soa.occurrences);
  EXPECT_EQ(Bits(aos.total_bits), Bits(soa.total_bits));
  EXPECT_EQ(Bits(aos.mean_bits_per_occurrence),
            Bits(soa.mean_bits_per_occurrence));
  ASSERT_EQ(aos.per_user.size(), 6u);
  ASSERT_EQ(aos.per_user.size(), soa.per_user.size());
  for (std::size_t i = 0; i < aos.per_user.size(); ++i) {
    EXPECT_EQ(aos.per_user[i].user, soa.per_user[i].user);
    EXPECT_EQ(aos.per_user[i].traversals, soa.per_user[i].traversals);
    EXPECT_EQ(Bits(aos.per_user[i].cumulative_bits),
              Bits(soa.per_user[i].cumulative_bits));
  }
}

TEST(ViewKernels, SpeedLinkIndependentOfLayout) {
  synth::PopulationConfig config;
  config.agents = 20;
  config.days = 2;
  config.seed = 321;
  const synth::SyntheticWorld world(config);
  const mech::SpeedSmoothing mechanism;
  util::Rng rng(1);
  const model::Dataset train = mechanism.Apply(world.DatasetForDays({0}), rng);
  const model::Dataset test = mechanism.Apply(world.DatasetForDays({1}), rng);
  const model::EventStore train_store = model::EventStore::FromDataset(train);
  const model::EventStore test_store = model::EventStore::FromDataset(test);

  const attacks::SpeedFingerprintAttack attack;
  const auto aos_profiles = attack.BuildProfiles(train);
  const auto soa_profiles = attack.BuildProfiles(train_store.View());
  ASSERT_FALSE(aos_profiles.empty());
  ASSERT_EQ(aos_profiles.size(), soa_profiles.size());
  for (std::size_t i = 0; i < aos_profiles.size(); ++i) {
    EXPECT_EQ(aos_profiles[i].user, soa_profiles[i].user);
    EXPECT_EQ(Bits(aos_profiles[i].mean_mps), Bits(soa_profiles[i].mean_mps));
    EXPECT_EQ(Bits(aos_profiles[i].stddev_mps),
              Bits(soa_profiles[i].stddev_mps));
    EXPECT_EQ(aos_profiles[i].traces, soa_profiles[i].traces);
  }

  const auto aos_links = attack.Attack(aos_profiles, test);
  const auto soa_links = attack.Attack(soa_profiles, test_store.View());
  ASSERT_FALSE(aos_links.empty());
  ASSERT_EQ(aos_links.size(), soa_links.size());
  for (std::size_t i = 0; i < aos_links.size(); ++i) {
    EXPECT_EQ(aos_links[i].true_user, soa_links[i].true_user);
    EXPECT_EQ(aos_links[i].predicted_user, soa_links[i].predicted_user);
    EXPECT_EQ(Bits(aos_links[i].score), Bits(soa_links[i].score));
  }
}

}  // namespace
}  // namespace mobipriv
