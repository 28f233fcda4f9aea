// Property suite over EVERY publication mechanism in the standard roster:
// invariants that must hold for any Mechanism implementation, present and
// future. Parameterized on the roster index so a failure names the exact
// mechanism.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "mechanisms/registry.h"
#include "synth/population.h"

namespace mobipriv::mech {
namespace {

model::Dataset SharedInput() {
  synth::PopulationConfig config;
  config.agents = 6;
  config.days = 1;
  config.seed = 555;
  static const model::Dataset dataset = [&] {
    const synth::SyntheticWorld world(config);
    return world.dataset().Clone();
  }();
  return dataset.Clone();
}

/// Roster entry `index`, built from its spec through the registry.
std::unique_ptr<Mechanism> RosterEntry(std::size_t index) {
  return CreateMechanism(core::StandardRosterSpecs({0.01, 0.1}).at(index));
}

class MechanismProperty : public ::testing::TestWithParam<std::size_t> {
 protected:
  MechanismProperty() : mechanism_(RosterEntry(GetParam())) {}
  Mechanism& mechanism() { return *mechanism_; }

 private:
  std::unique_ptr<Mechanism> mechanism_;
};

TEST_P(MechanismProperty, DeterministicGivenRngSeed) {
  const model::Dataset input = SharedInput();
  util::Rng rng_a(9);
  util::Rng rng_b(9);
  const model::Dataset a = mechanism().Apply(input, rng_a);
  const model::Dataset b = mechanism().Apply(input, rng_b);
  ASSERT_EQ(a.TraceCount(), b.TraceCount()) << mechanism().Name();
  ASSERT_EQ(a.EventCount(), b.EventCount()) << mechanism().Name();
  for (std::size_t i = 0; i < a.TraceCount(); ++i) {
    ASSERT_EQ(a.traces()[i].size(), b.traces()[i].size());
    EXPECT_EQ(a.traces()[i].user(), b.traces()[i].user());
    for (std::size_t j = 0; j < a.traces()[i].size(); ++j) {
      EXPECT_EQ(a.traces()[i][j], b.traces()[i][j]) << mechanism().Name();
    }
  }
}

TEST_P(MechanismProperty, DoesNotMutateInput) {
  const model::Dataset input = SharedInput();
  const model::Dataset reference = SharedInput();
  util::Rng rng(3);
  (void)mechanism().Apply(input, rng);
  ASSERT_EQ(input.TraceCount(), reference.TraceCount());
  ASSERT_EQ(input.EventCount(), reference.EventCount());
  for (std::size_t i = 0; i < input.TraceCount(); ++i) {
    for (std::size_t j = 0; j < input.traces()[i].size(); ++j) {
      ASSERT_EQ(input.traces()[i][j], reference.traces()[i][j])
          << mechanism().Name() << " mutated its input";
    }
  }
}

TEST_P(MechanismProperty, OutputUsersWithinInputIdSpace) {
  const model::Dataset input = SharedInput();
  util::Rng rng(5);
  const model::Dataset output = mechanism().Apply(input, rng);
  for (const auto& trace : output.traces()) {
    EXPECT_LT(trace.user(), input.UserCount()) << mechanism().Name();
  }
}

TEST_P(MechanismProperty, OutputTracesTimeOrderedAndNonEmpty) {
  const model::Dataset input = SharedInput();
  util::Rng rng(7);
  const model::Dataset output = mechanism().Apply(input, rng);
  for (const auto& trace : output.traces()) {
    EXPECT_FALSE(trace.empty()) << mechanism().Name();
    EXPECT_TRUE(trace.IsTimeOrdered()) << mechanism().Name();
  }
}

TEST_P(MechanismProperty, OutputCoordinatesValid) {
  const model::Dataset input = SharedInput();
  util::Rng rng(11);
  const model::Dataset output = mechanism().Apply(input, rng);
  for (const auto& trace : output.traces()) {
    for (const auto& event : trace) {
      EXPECT_TRUE(event.position.IsValid())
          << mechanism().Name() << " produced " << event.position.ToString();
    }
  }
}

TEST_P(MechanismProperty, EmptyDatasetYieldsEmptyOutput) {
  util::Rng rng(13);
  const model::Dataset output = mechanism().Apply(model::Dataset{}, rng);
  EXPECT_EQ(output.EventCount(), 0u) << mechanism().Name();
}

TEST_P(MechanismProperty, NameIsStableAndNonEmpty) {
  EXPECT_FALSE(mechanism().Name().empty());
  EXPECT_EQ(mechanism().Name(), mechanism().Name());
}

TEST_P(MechanismProperty, NeverInventsEvents) {
  // No mechanism in this library fabricates more events than a bounded
  // factor of the input (resampling can add interpolated points, bounded
  // by path-length/spacing; everything else only perturbs or removes).
  const model::Dataset input = SharedInput();
  util::Rng rng(17);
  const model::Dataset output = mechanism().Apply(input, rng);
  EXPECT_LE(output.EventCount(), input.EventCount() * 4)
      << mechanism().Name();
}

INSTANTIATE_TEST_SUITE_P(
    StandardRoster, MechanismProperty,
    ::testing::Range<std::size_t>(0, 10),  // roster size with 2 epsilons
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      // Stable, name-safe label: the roster index plus sanitized name.
      std::string name = RosterEntry(info.param)->Name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return std::to_string(info.param) + "_" + name;
    });

}  // namespace
}  // namespace mobipriv::mech
