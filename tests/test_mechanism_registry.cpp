#include "mechanisms/registry.h"

#include <gtest/gtest.h>

#include "core/anonymizer.h"
#include "core/evaluator.h"
#include "core/experiment.h"
#include "mechanisms/geo_indistinguishability.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "mechanisms/wait4me.h"
#include "support/param_names.h"
#include "util/spec.h"

namespace mobipriv {
namespace {

TEST(Spec, ParsesBareBase) {
  const auto spec = util::Spec::Parse("identity");
  EXPECT_EQ(spec.base(), "identity");
  EXPECT_TRUE(spec.entries().empty());
  EXPECT_EQ(spec.ToString(), "identity");
}

TEST(Spec, ParsesParamsAndFlags) {
  const auto spec = util::Spec::Parse("wait4me[k=4,delta=500m]");
  EXPECT_EQ(spec.base(), "wait4me");
  EXPECT_EQ(spec.IntOf("k", 0), 4);
  EXPECT_DOUBLE_EQ(spec.NumberOf("delta", 0.0), 500.0);  // unit stripped
  EXPECT_EQ(spec.ToString(), "wait4me[k=4,delta=500m]");

  const auto flags = util::Spec::Parse("ours[speed+mix]");
  EXPECT_TRUE(flags.HasFlag("speed+mix"));
}

TEST(Spec, RejectsMalformed) {
  EXPECT_THROW((void)util::Spec::Parse(""), util::SpecError);
  EXPECT_THROW((void)util::Spec::Parse("[eps=1]"), util::SpecError);
  EXPECT_THROW((void)util::Spec::Parse("geo_ind[eps=1"), util::SpecError);
  EXPECT_THROW((void)util::Spec::Parse("a[b=1,,c=2]"), util::SpecError);
  EXPECT_THROW((void)util::Spec::Parse("a[[x]]"), util::SpecError);
  EXPECT_THROW((void)util::Spec::Parse("a[=1]"), util::SpecError);
}

TEST(Spec, NumberErrors) {
  const auto spec = util::Spec::Parse("geo_ind[eps=abc]");
  EXPECT_THROW((void)spec.NumberOf("eps", 0.0), util::SpecError);
  EXPECT_DOUBLE_EQ(spec.NumberOf("absent", 7.0), 7.0);
}

// The registry's core contract: every Name() the library prints parses
// back into a mechanism printing the same Name(), and differently
// configured mechanisms never share a name — for every registered base
// and every key of its parameter table.
TEST(MechanismRegistry, NameRoundTripsForWholeRoster) {
  test_support::ExpectNamesRoundTripAndAreInjective(
      mech::RegisteredMechanismBases(),
      [](const std::string& base) { return mech::MechanismParams(base); },
      [](const std::string& spec) {
        return mech::CreateMechanism(spec)->Name();
      });
  for (const std::string& spec :
       core::StandardRosterSpecs({0.001, 0.01, 0.1, 0.00004})) {
    const std::string name = mech::CreateMechanism(spec)->Name();
    EXPECT_EQ(mech::CreateMechanism(name)->Name(), name) << "spec: " << spec;
  }
  // Names that were already lossless keep their bytes, and a mix zone's
  // name carries its non-default gate knobs.
  for (const char* name :
       {"speed_smoothing[eps=100m]", "mixzone[r=150m,w=600s]",
        "mixzone[r=150m,w=600s,min_users=3]",
        "mixzone[r=150m,w=600s,suppress=0]", "geo_ind[eps=0.0100]",
        "wait4me[k=4,delta=500m]", "ours[speed+mix]"}) {
    EXPECT_EQ(mech::CreateMechanism(name)->Name(), name);
  }
  // Names that used to collide on a dropped key or a rounded value.
  const std::pair<const char*, const char*> renamed[] = {
      {"speed_smoothing[min_len=5000m]",
       "speed_smoothing[eps=100m,min_len=5000m]"},
      {"wait4me[k=2,grid=300]", "wait4me[k=2,delta=500m,grid=300s]"},
      {"wait4me[k=2,overlap=0.2]", "wait4me[k=2,delta=500m,overlap=0.2]"},
      {"gaussian[sigma=10.4]", "gaussian[sigma=10.4m]"},
      {"geo_ind[eps=0.01004]", "geo_ind[eps=0.01004]"},
      {"geo_ind[eps=0.00004]", "geo_ind[eps=4e-05]"},
      {"mixzone[r=0.4]", "mixzone[r=0.4m,w=600s]"}};
  for (const auto& [spec, name] : renamed) {
    EXPECT_EQ(mech::CreateMechanism(spec)->Name(), name);
  }
}

TEST(MechanismRegistry, ParsesParametersIntoConfigs) {
  const auto geo = mech::CreateMechanism("geo_ind[eps=0.05]");
  const auto* geo_ind =
      dynamic_cast<const mech::GeoIndistinguishability*>(geo.get());
  ASSERT_NE(geo_ind, nullptr);
  EXPECT_DOUBLE_EQ(geo_ind->config().epsilon, 0.05);

  const auto w4m = mech::CreateMechanism("wait4me[k=7,delta=250m]");
  const auto* wait4me = dynamic_cast<const mech::Wait4Me*>(w4m.get());
  ASSERT_NE(wait4me, nullptr);
  EXPECT_EQ(wait4me->config().k, 7u);
  EXPECT_DOUBLE_EQ(wait4me->config().delta_m, 250.0);

  const auto speed = mech::CreateMechanism("speed_smoothing[eps=42m]");
  const auto* smoothing =
      dynamic_cast<const mech::SpeedSmoothing*>(speed.get());
  ASSERT_NE(smoothing, nullptr);
  EXPECT_DOUBLE_EQ(smoothing->config().spacing_m, 42.0);
}

TEST(MechanismRegistry, OursStageSelection) {
  const auto full = mech::CreateMechanism("ours[speed+mix]");
  const auto* anonymizer = dynamic_cast<const core::Anonymizer*>(full.get());
  ASSERT_NE(anonymizer, nullptr);
  EXPECT_TRUE(anonymizer->config().enable_speed_smoothing);
  EXPECT_TRUE(anonymizer->config().enable_mixzones);

  const auto speed_only = mech::CreateMechanism("ours[speed]");
  const auto* speed =
      dynamic_cast<const core::Anonymizer*>(speed_only.get());
  ASSERT_NE(speed, nullptr);
  EXPECT_TRUE(speed->config().enable_speed_smoothing);
  EXPECT_FALSE(speed->config().enable_mixzones);
  EXPECT_EQ(speed_only->Name(), "ours[speed]");

  // Bare "ours" is the full pipeline; stage knobs pass through.
  const auto tuned = mech::CreateMechanism("ours[speed+mix,eps=50m,r=200m]");
  const auto* tuned_anon = dynamic_cast<const core::Anonymizer*>(tuned.get());
  ASSERT_NE(tuned_anon, nullptr);
  EXPECT_DOUBLE_EQ(tuned_anon->config().speed.spacing_m, 50.0);
  EXPECT_DOUBLE_EQ(tuned_anon->config().mixzone.zone_radius_m, 200.0);
}

TEST(MechanismRegistry, TunedOursNameIsInjectiveAndRoundTrips) {
  // The engine memoizes by Name(), so differently-tuned pipelines must
  // print different names — and each must parse back to itself.
  for (const char* name :
       {"ours[speed,eps=50m]", "ours[speed,eps=25m]",
        "ours[speed+mix,eps=50m,r=200m]", "ours[mix,w=300s,min_users=3]"}) {
    EXPECT_EQ(mech::CreateMechanism(name)->Name(), name);
  }
  EXPECT_NE(mech::CreateMechanism("ours[speed,eps=50m]")->Name(),
            mech::CreateMechanism("ours[speed,eps=25m]")->Name());
}

TEST(MechanismRegistry, RejectsUnknownBaseAndParams) {
  EXPECT_THROW((void)mech::CreateMechanism("nope"), util::SpecError);
  EXPECT_THROW((void)mech::CreateMechanism("geo_ind[epsilon=1]"),
               util::SpecError);
  EXPECT_THROW((void)mech::CreateMechanism("ours[turbo]"), util::SpecError);
  // A stage's keys are unknown when the stage does not run.
  EXPECT_THROW((void)mech::CreateMechanism("ours[mix,eps=50m]"),
               util::SpecError);
  EXPECT_THROW((void)mech::CreateMechanism("ours[speed,r=90m]"),
               util::SpecError);
  EXPECT_THROW((void)mech::CreateMechanism("identity[x=1]"),
               util::SpecError);
}

template <class Create>
void ExpectRejected(const Create& create, const std::string& spec,
                    const std::string& key) {
  try {
    (void)create(spec);
    ADD_FAILURE() << spec << " was accepted";
  } catch (const util::SpecError& error) {
    EXPECT_NE(std::string(error.what()).find("parameter " + key),
              std::string::npos)
        << spec << ": " << error.what();
  }
}

// One table row validates the mix-zone knobs of the mechanism, the
// pipeline and the evaluator alike, and its error names the bad key.
TEST(MechanismRegistry, RejectsInvalidMixZoneParameters) {
  const std::pair<const char*, const char*> bad[] = {
      {"r=-50", "r"},         {"r=0", "r"},
      {"r=1e999", "r"},       {"w=-5", "w"},
      {"w=0", "w"},           {"min_users=1", "min_users"},
      {"min_users=0", "min_users"}, {"min_users=-3", "min_users"},
      {"suppress=2", "suppress"}};
  for (const auto& [param, key] : bad) {
    const std::string p = param;
    for (const std::string& spec :
         {"mixzone[" + p + "]", "ours[" + p + "]", "ours[mix," + p + "]"}) {
      ExpectRejected(mech::CreateMechanism, spec, key);
    }
    if (std::string(key) == "suppress") continue;  // not an uncertainty key
    ExpectRejected(core::CreateEvaluator, "uncertainty[" + p + "]", key);
  }
  // The smallest valid values pass.
  EXPECT_NO_THROW(
      (void)mech::CreateMechanism("mixzone[r=0.5,w=1,min_users=2]"));
  EXPECT_NO_THROW((void)core::CreateEvaluator("uncertainty[w=1,min_users=2]"));
}

// Each value was accepted once and then exhausted memory (eps, grid) or
// published non-finite coordinates (cell, eps); the range column of the
// parameter table now rejects it when the spec is parsed.
TEST(MechanismRegistry, RejectsOutOfRangeParameters) {
  const std::pair<const char*, const char*> bad[] = {
      {"speed_smoothing[eps=0]", "eps"}, {"wait4me[grid=0]", "grid"},
      {"cloaking[cell=0]", "cell"},      {"geo_ind[eps=0]", "eps"},
      {"wait4me[overlap=1.5]", "overlap"}, {"wait4me[k=1]", "k"},
      {"gaussian[sigma=-1]", "sigma"},   {"downsampling[dt=0]", "dt"},
      {"ours[eps=0]", "eps"}};
  for (const auto& [spec, key] : bad) {
    ExpectRejected(mech::CreateMechanism, spec, key);
  }
}

TEST(MechanismRegistry, ExtensionPoint) {
  mech::RegisterMechanism("test_identity",
                          [](const util::Spec&) {
                            return mech::CreateMechanism("identity");
                          });
  const auto bases = mech::RegisteredMechanismBases();
  EXPECT_NE(std::find(bases.begin(), bases.end(), "test_identity"),
            bases.end());
  EXPECT_EQ(mech::CreateMechanism("test_identity")->Name(), "identity");
}

}  // namespace
}  // namespace mobipriv
