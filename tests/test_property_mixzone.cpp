// Parameterized property sweep of the paper's stage 2 over zone radii and
// time windows: accounting, suppression and identity-space invariants must
// hold for any configuration.
#include <gtest/gtest.h>

#include <set>

#include "geo/projection.h"
#include "mechanisms/mixzone.h"
#include "synth/population.h"

namespace mobipriv::mech {
namespace {

class MixZoneProperty
    : public ::testing::TestWithParam<std::tuple<double, util::Timestamp>> {
 protected:
  static const model::Dataset& Input() {
    static const model::Dataset dataset = [] {
      synth::PopulationConfig config;
      config.agents = 8;
      config.days = 1;
      config.seed = 404;
      config.force_shared_hub = true;  // guarantee crossings
      const synth::SyntheticWorld world(config);
      return world.dataset().Clone();
    }();
    return dataset;
  }
  MixZone MakeMechanism() const {
    MixZoneConfig config;
    config.zone_radius_m = std::get<0>(GetParam());
    config.time_window_s = std::get<1>(GetParam());
    return MixZone(config);
  }
};

TEST_P(MixZoneProperty, EventConservation) {
  const auto mechanism = MakeMechanism();
  util::Rng rng(1);
  MixZoneReport report;
  const model::EventStore output =
      mechanism.ApplyToStoreWithReport(Input(), rng, report);
  EXPECT_EQ(report.total_events, Input().EventCount());
  EXPECT_EQ(output.EventCount() + report.suppressed_events,
            report.total_events);
}

TEST_P(MixZoneProperty, PublishedEventsAreASubsetOfInputEvents) {
  const auto mechanism = MakeMechanism();
  util::Rng rng(2);
  const model::Dataset output = mechanism.Apply(Input(), rng);
  // Locations/timestamps are never altered, only dropped or relabelled:
  // every published (time, position) pair exists in the input.
  std::set<std::pair<util::Timestamp, std::pair<double, double>>> input_set;
  for (const auto& trace : Input().traces()) {
    for (const auto& event : trace) {
      input_set.insert({event.time,
                        {event.position.lat, event.position.lng}});
    }
  }
  for (const auto& trace : output.traces()) {
    for (const auto& event : trace) {
      EXPECT_TRUE(input_set.contains(
          {event.time, {event.position.lat, event.position.lng}}));
    }
  }
}

TEST_P(MixZoneProperty, NoPublishedPointInsideAnyZone) {
  const auto mechanism = MakeMechanism();
  util::Rng rng(3);
  MixZoneReport report;
  const model::Dataset output =
      mechanism.ApplyToStoreWithReport(Input(), rng, report).ToDataset();
  const geo::LocalProjection projection(Input().BoundingBox().Center());
  // Points inside a detected zone during its episodes are suppressed; a
  // published point may only be inside a zone disc outside episode times.
  // Conservatively verify the weaker, always-true invariant: the count of
  // published points strictly inside zone discs is below the input's count.
  std::size_t inside_in = 0;
  std::size_t inside_out = 0;
  const auto count_inside = [&](const model::Dataset& dataset,
                                std::size_t& counter) {
    for (const auto& trace : dataset.traces()) {
      for (const auto& event : trace) {
        for (const auto& zone : report.zones) {
          if (geo::Distance(projection.Project(event.position),
                            zone.center) <= zone.radius_m) {
            ++counter;
            break;
          }
        }
      }
    }
  };
  count_inside(Input(), inside_in);
  count_inside(output, inside_out);
  if (report.suppressed_events > 0) {
    EXPECT_LT(inside_out, inside_in);
  }
}

TEST_P(MixZoneProperty, AnonymitySetsMeetTheFloor) {
  const auto mechanism = MakeMechanism();
  util::Rng rng(4);
  MixZoneReport report;
  (void)mechanism.ApplyToStoreWithReport(Input(), rng, report);
  for (const auto& occurrence : report.occurrence_details) {
    EXPECT_GE(occurrence.users.size(), 2u);
  }
  for (const auto& zone : report.zones) {
    EXPECT_GE(zone.max_anonymity_set, 2u);
    EXPECT_GT(zone.occurrences, 0u);
  }
}

TEST_P(MixZoneProperty, IdentitySpacePreserved) {
  const auto mechanism = MakeMechanism();
  util::Rng rng(5);
  const model::Dataset output = mechanism.Apply(Input(), rng);
  EXPECT_EQ(output.UserCount(), Input().UserCount());
  for (const auto& trace : output.traces()) {
    EXPECT_LT(trace.user(), Input().UserCount());
  }
}

TEST_P(MixZoneProperty, SwapsNeverExceedOccurrences) {
  const auto mechanism = MakeMechanism();
  util::Rng rng(6);
  MixZoneReport report;
  (void)mechanism.ApplyToStoreWithReport(Input(), rng, report);
  EXPECT_LE(report.swaps_applied, report.occurrences);
  EXPECT_LE(report.zones.size(), report.occurrences + 1);
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndWindows, MixZoneProperty,
    ::testing::Combine(::testing::Values(75.0, 150.0, 300.0),
                       ::testing::Values(util::Timestamp{300},
                                         util::Timestamp{900})));

}  // namespace
}  // namespace mobipriv::mech
