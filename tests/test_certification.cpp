#include "privacy/certification.h"

#include <gtest/gtest.h>

#include "core/anonymizer.h"
#include "mechanisms/speed_smoothing.h"
#include "synth/population.h"

namespace mobipriv::privacy {
namespace {

model::Dataset RawWorld() {
  synth::PopulationConfig config;
  config.agents = 5;
  config.days = 1;
  config.seed = 321;
  const synth::SyntheticWorld world(config);
  return world.dataset().Clone();
}

TEST(Certification, RejectsRawData) {
  const model::Dataset raw = RawWorld();
  const auto report = CertifyConstantSpeed(raw);
  EXPECT_FALSE(report.Certified());
  EXPECT_GT(report.violations.size(), 0u);
  // Raw data violates in multiple ways: non-uniform spacing AND residual
  // stays.
  bool has_spacing = false;
  bool has_stay = false;
  for (const auto& v : report.violations) {
    has_spacing |=
        v.kind == CertificationViolation::Kind::kNonUniformSpacing;
    has_stay |= v.kind == CertificationViolation::Kind::kResidualStay;
  }
  EXPECT_TRUE(has_spacing);
  EXPECT_TRUE(has_stay);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(Certification, CertifiesStageOneOutput) {
  const mech::SpeedSmoothing mechanism;
  util::Rng rng(1);
  const model::Dataset published = mechanism.Apply(RawWorld(), rng);
  const auto report = CertifyConstantSpeed(published);
  EXPECT_TRUE(report.Certified()) << report.ToString();
  EXPECT_GT(report.traces_checked, 0u);
}

TEST(Certification, CertifiesFullPipelineOutput) {
  const core::Anonymizer anonymizer;
  util::Rng rng(2);
  const model::Dataset published = anonymizer.Apply(RawWorld(), rng);
  CertificationConfig config;
  // Mix-zone suppression cuts traces; the stitched pieces keep uniform
  // spacing per segment but a swapped trace may join two speeds, so allow
  // interval deviation at the stitch point via screening-only checks:
  // verify there is at least no residual stay and time ordering holds.
  config.max_spacing_deviation = 1e9;
  config.max_interval_deviation_s = 1e18;
  const auto report = CertifyConstantSpeed(published, config);
  EXPECT_TRUE(report.Certified()) << report.ToString();
}

TEST(Certification, FlagsUnorderedTimestamps) {
  model::Dataset dataset;
  dataset.AddTraceForUser(
      "u", {{{45.0, 4.0}, 100}, {{45.01, 4.0}, 50}, {{45.02, 4.0}, 200},
            {{45.03, 4.0}, 300}});
  const auto report = CertifyConstantSpeed(dataset);
  ASSERT_FALSE(report.Certified());
  EXPECT_EQ(report.violations.front().kind,
            CertificationViolation::Kind::kUnorderedTimestamps);
}

TEST(Certification, ExemptsTinyTraces) {
  model::Dataset dataset;
  dataset.AddTraceForUser("u", {{{45.0, 4.0}, 0}, {{45.5, 4.0}, 60}});
  const auto report = CertifyConstantSpeed(dataset);
  EXPECT_TRUE(report.Certified());
  EXPECT_EQ(report.traces_exempt, 1u);
  EXPECT_EQ(report.traces_checked, 0u);
}

TEST(Certification, IntervalToleranceRespected) {
  // Uniform spacing, one interval off by 5 s: rejected at 2 s tolerance,
  // accepted at 10 s.
  model::Dataset dataset;
  std::vector<model::Event> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back({{45.0 + 0.001 * i, 4.0},
                      static_cast<util::Timestamp>(i * 100)});
  }
  events.back().time += 5;
  dataset.AddTraceForUser("u", events);
  EXPECT_FALSE(CertifyConstantSpeed(dataset).Certified());
  CertificationConfig relaxed;
  relaxed.max_interval_deviation_s = 10.0;
  EXPECT_TRUE(CertifyConstantSpeed(dataset, relaxed).Certified());
}

}  // namespace
}  // namespace mobipriv::privacy
