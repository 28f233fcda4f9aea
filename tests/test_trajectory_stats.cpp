#include "metrics/trajectory_stats.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/scenario.h"
#include "geo/projection.h"
#include "mechanisms/registry.h"
#include "mechanisms/speed_smoothing.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"

namespace mobipriv::metrics {
namespace {

namespace fs = std::filesystem;

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

model::Dataset TwoTripDataset() {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  // Trip 1: 1 km east. Trip 2: 3 km north.
  std::vector<model::Event> t1;
  std::vector<model::Event> t2;
  for (int i = 0; i <= 10; ++i) {
    t1.push_back({projection.Unproject({i * 100.0, 0.0}),
                  static_cast<util::Timestamp>(i * 60)});
    t2.push_back({projection.Unproject({0.0, i * 300.0}),
                  static_cast<util::Timestamp>(86400 + i * 60)});
  }
  dataset.AddTraceForUser("a", std::move(t1));
  dataset.AddTraceForUser("b", std::move(t2));
  return dataset;
}

TEST(TripLengths, Values) {
  const auto dataset = TwoTripDataset();
  const auto lengths = TripLengths(dataset);
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_NEAR(lengths[0], 1000.0, 2.0);
  EXPECT_NEAR(lengths[1], 3000.0, 5.0);
}

TEST(TripLengths, MinLengthFilter) {
  const auto dataset = TwoTripDataset();
  const model::Dataset empty;
  EXPECT_EQ(TripLengths(dataset, 2000.0).size(), 1u);
  EXPECT_TRUE(TripLengths(empty).empty());
}

TEST(RadiusOfGyration, UniformLineIsKnown) {
  // n equally spaced points with spacing s have population variance
  // (n^2 - 1)/12 * s^2, so rg = s * sqrt((n^2 - 1)/12); n = 11, s = 100.
  const auto dataset = TwoTripDataset();
  const double rg = RadiusOfGyration(dataset, 0);
  const double expected = 100.0 * std::sqrt((121.0 - 1.0) / 12.0);
  EXPECT_NEAR(rg, expected, 3.0);
  // One kernel: the single-user form is the all-users form's entry, bit
  // for bit.
  const auto radii = AllRadiiOfGyration(dataset);
  EXPECT_EQ(rg, radii[0]);
  EXPECT_EQ(RadiusOfGyration(dataset, 1), radii[1]);
}

TEST(RadiusOfGyration, MatchesAllRadiiOnASyntheticWorld) {
  // Users with many interleaved traces: RadiusOfGyration's dataset-order
  // scan and AllRadiiOfGyration's per-user buckets visit the same fixes in
  // the same order.
  synth::PopulationConfig config;
  config.agents = 6;
  config.days = 2;
  config.seed = 7;
  const synth::SyntheticWorld world(config);
  const auto radii = AllRadiiOfGyration(world.dataset());
  ASSERT_EQ(radii.size(), world.dataset().UserCount());
  for (model::UserId u = 0; u < radii.size(); ++u) {
    EXPECT_GT(radii[u], 0.0) << u;
    EXPECT_EQ(RadiusOfGyration(world.dataset(), u), radii[u]) << u;
  }
}

TEST(RadiusOfGyration, UnknownUserIsZero) {
  const auto dataset = TwoTripDataset();
  EXPECT_DOUBLE_EQ(RadiusOfGyration(dataset, 99), 0.0);
}

TEST(AllRadiiOfGyration, OnePerUser) {
  const auto dataset = TwoTripDataset();
  const auto radii = AllRadiiOfGyration(dataset);
  ASSERT_EQ(radii.size(), 2u);
  EXPECT_GT(radii[1], radii[0]);  // 3 km trip has larger gyration
}

TEST(EarthMoversDistance, IdenticalIsZero) {
  const std::vector<double> samples{1.0, 2.0, 5.0, 9.0};
  EXPECT_NEAR(EarthMoversDistance(samples, samples), 0.0, 1e-9);
}

TEST(EarthMoversDistance, ConstantShift) {
  // Shifting a distribution by c gives EMD = c.
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{11.0, 12.0, 13.0, 14.0};
  EXPECT_NEAR(EarthMoversDistance(a, b), 10.0, 1e-9);
}

TEST(EarthMoversDistance, SymmetricAndDegenerate) {
  const std::vector<double> a{1.0, 5.0};
  const std::vector<double> b{2.0, 3.0};
  EXPECT_NEAR(EarthMoversDistance(a, b), EarthMoversDistance(b, a), 1e-9);
  EXPECT_DOUBLE_EQ(EarthMoversDistance({}, {}), 0.0);
  EXPECT_TRUE(std::isinf(EarthMoversDistance(a, {})));
}

TEST(EarthMoversDistance, DifferentSampleCounts) {
  const std::vector<double> a{0.0, 10.0};
  const std::vector<double> b{0.0, 5.0, 10.0};
  const double d = EarthMoversDistance(a, b);
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 5.0);
}

TEST(CompareTrajectoryStats, IdentityPreservesEverything) {
  const auto dataset = TwoTripDataset();
  const auto report = CompareTrajectoryStats(dataset, dataset);
  EXPECT_NEAR(report.trip_length_emd, 0.0, 1e-6);
  EXPECT_NEAR(report.gyration_relative_error, 0.0, 1e-9);
  EXPECT_FALSE(report.ToString().empty());
}

/// A 1 km trip of `fixes` points, far from TwoTripDataset()'s extent.
std::vector<model::Event> FarAwayTrip(int fixes) {
  const geo::LocalProjection far_frame(geo::LatLng{-33.8688, 151.2093});
  std::vector<model::Event> events;
  for (int i = 0; i < fixes; ++i) {
    events.push_back({far_frame.Unproject({i * 100.0, i * 50.0}),
                      static_cast<util::Timestamp>(i * 60)});
  }
  return events;
}

TEST(CompareTrajectoryStats, PublishedOutlierLeavesOtherUsersUntouched) {
  // Published = original + one far-away extra user. The unchanged users'
  // radii are measured in the original's frame on both sides, so their
  // error is exactly zero; a frame centred on the published extent would
  // rescale their east axis and report an error nobody made.
  const model::Dataset original = TwoTripDataset();
  model::Dataset published = original;
  published.AddTraceForUser("far", FarAwayTrip(11));
  ASSERT_EQ(published.UserCount(), original.UserCount() + 1);

  const auto report = CompareTrajectoryStats(original, published);
  EXPECT_EQ(report.gyration_relative_error, 0.0);
  const geo::LocalProjection frame(original.BoundingBox().Center());
  const auto radii_orig = AllRadiiOfGyration(original, frame);
  const auto radii_pub = AllRadiiOfGyration(published, frame);
  for (model::UserId u = 0; u < original.UserCount(); ++u) {
    EXPECT_EQ(radii_pub[u], radii_orig[u]) << u;
  }
}

/// Per-trace test mechanism: copies every trace, except that a single-fix
/// trace is moved far away — the engine-side analogue of an extra
/// far-away published user (a single fix has zero gyration in any frame,
/// so that user's own error is skipped, never nonzero).
class SendLoneFixesFar final : public mech::PerTraceMechanism {
 public:
  [[nodiscard]] std::string Name() const override {
    return "test_send_lone_fixes_far";
  }

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& /*rng*/) const override {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      geo::LatLng p = trace.position(i);
      if (trace.size() == 1) p = FarAwayTrip(1)[0].position;
      out.Append(p, trace.time(i));
    }
  }
};

TEST(CompareTrajectoryStats, StreamedFoldUsesTheOriginalFrameToo) {
  mech::RegisterMechanism("test_send_lone_fixes_far", [](const util::Spec&) {
    return std::make_unique<SendLoneFixesFar>();
  });
  model::Dataset original = TwoTripDataset();
  original.AddTraceForUser("lone", {{kOrigin, 0}});
  const fs::path dir =
      fs::temp_directory_path() /
      ("mobipriv_gyration_frame-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  model::ShardedDataset::Partition(original, 2).SaveShards(dir.string());

  std::string reference;
  for (const bool streamed : {false, true}) {
    core::ScenarioSpec spec;
    spec.source = streamed ? core::DatasetSourceSpec::ShardDir(dir.string())
                           : core::DatasetSourceSpec::Borrowed(original);
    spec.mechanisms = {"test_send_lone_fixes_far"};
    spec.evaluators = {"trajectory_stats"};
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_EQ(engine.stats().streamed_shards, streamed ? 2u : 0u);
    ASSERT_TRUE(report.AllOk()) << report.ToCsv();
    bool seen = false;
    for (const core::ReportRow& row : report.rows()) {
      if (row.metric != "gyration_rel_err") continue;
      seen = true;
      EXPECT_EQ(row.value, 0.0) << "streamed=" << streamed;
    }
    EXPECT_TRUE(seen);
    if (reference.empty()) {
      reference = report.ToCsv();
    } else {
      EXPECT_EQ(report.ToCsv(), reference);
    }
  }
  fs::remove_all(dir);
}

TEST(CompareTrajectoryStats, SpeedSmoothingPreservesScaleStatistics) {
  // The paper's mechanism should approximately preserve trip lengths and
  // radii of gyration — geometry is kept, only jitter is removed.
  synth::PopulationConfig config;
  config.agents = 8;
  config.days = 1;
  config.seed = 42;
  const synth::SyntheticWorld world(config);
  const mech::SpeedSmoothing mechanism;
  util::Rng rng(1);
  const model::Dataset published = mechanism.Apply(world.dataset(), rng);
  const auto report =
      CompareTrajectoryStats(world.dataset(), published);
  // Chord resampling strips dwell jitter (published trips get somewhat
  // shorter — that length was noise, not travel) and equalizes fix density
  // (raw gyration over-weights dwell clusters), so moderate shifts are
  // expected; the distributions must stay the same scale.
  EXPECT_LT(report.trip_length_emd,
            report.trip_length_original.mean * 0.35);
  EXPECT_LT(report.gyration_relative_error, 0.35);
  EXPECT_NEAR(report.gyration_published.mean,
              report.gyration_original.mean,
              report.gyration_original.mean * 0.4);
}

}  // namespace
}  // namespace mobipriv::metrics
