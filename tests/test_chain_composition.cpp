// Tests for mechanism composition ("a|b|c"). A chain is not a mechanism:
// it exists only as a scenario-engine plan.
//   * the registry rejects a chain text, and mech::ChainName names it;
//   * the scenario engine compiles chains into per-PREFIX stage nodes:
//     rows sharing a prefix reuse its nodes (stats().stage_reuses), each
//     shared stage runs exactly once, and the report is byte-identical
//     across thread counts and cache states;
//   * engine stage bytes follow the documented per-prefix rng discipline
//     (verified against the `.mpc` cache entry by recomputing by hand);
//   * chain names never alias single-mechanism names ("ours[...]" is not
//     a chain), and differently-written chains that canonicalize to the
//     same name share one grid row.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/output_cache.h"
#include "core/scenario.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "synth/population.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 8;
    config.days = 1;
    config.seed = 99;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Bitwise equality of two dataset views: same trace order, same user
/// names, same event bit patterns (stricter than value equality — NaN and
/// signed-zero differences fail too).
void ExpectBitIdentical(const model::DatasetView& a,
                        const model::DatasetView& b,
                        const std::string& context) {
  ASSERT_EQ(a.TraceCount(), b.TraceCount()) << context;
  for (std::size_t t = 0; t < a.TraceCount(); ++t) {
    const model::TraceView& ta = a.trace(t);
    const model::TraceView& tb = b.trace(t);
    ASSERT_EQ(ta.size(), tb.size()) << context << " trace " << t;
    ASSERT_EQ(a.UserName(ta.user()), b.UserName(tb.user()))
        << context << " trace " << t;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(Bits(ta.lat(i)), Bits(tb.lat(i)))
          << context << " trace " << t << " event " << i;
      ASSERT_EQ(Bits(ta.lng(i)), Bits(tb.lng(i)))
          << context << " trace " << t << " event " << i;
      ASSERT_EQ(ta.time(i), tb.time(i))
          << context << " trace " << t << " event " << i;
    }
  }
}

std::string JoinStages(const std::vector<std::string>& stages) {
  std::string text;
  for (const std::string& stage : stages) {
    if (!text.empty()) text += "|";
    text += stage;
  }
  return text;
}

TEST(ChainComposition, CreateMechanismRejectsChainTexts) {
  try {
    (void)mech::CreateMechanism("geo_ind[eps=0.05]|cloaking");
    FAIL() << "a chain text built a mechanism";
  } catch (const util::SpecError& e) {
    EXPECT_STREQ(e.what(),
                 "\"geo_ind[eps=0.05]|cloaking\" is a mechanism chain; "
                 "chains run through the scenario engine "
                 "(core::ScenarioEngine), not as one mechanism");
  }
  // A '|' inside brackets is not a chain separator: this is one (bad)
  // spec, rejected for its parameter, not as a chain.
  try {
    (void)mech::CreateMechanism("geo_ind[eps=0.05|0.1]");
    FAIL() << "a malformed eps value parsed";
  } catch (const util::SpecError& e) {
    EXPECT_EQ(std::string(e.what()).find("mechanism chain"),
              std::string::npos)
        << e.what();
  }
  // ChainName builds every stage, so a bad stage still fails loudly.
  EXPECT_THROW((void)mech::ChainName("geo_ind[eps=0.05]|warp_drive"),
               util::SpecError);
  // A single-stage text is named like the mechanism itself.
  EXPECT_EQ(mech::ChainName("cloaking"),
            mech::CreateMechanism("cloaking")->Name());
}

// ---- Engine compilation: shared prefixes become shared nodes. -----------

core::ScenarioSpec SharedPrefixSpec() {
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  // Four rows, one shared 2-stage prefix: 12 stage references compile to
  // 2 shared + 4 terminal = 6 nodes.
  spec.mechanisms = {
      "geo_ind[eps=0.05]|downsampling[dt=120]|mixzone[r=100m]",
      "geo_ind[eps=0.05]|downsampling[dt=120]|mixzone[r=200m]",
      "geo_ind[eps=0.05]|downsampling[dt=120]|cloaking",
      "geo_ind[eps=0.05]|downsampling[dt=120]|gaussian",
  };
  spec.evaluators = {"spatial_distortion", "certification"};
  spec.seeds = {1};
  return spec;
}

TEST(ChainComposition, EngineSharesPrefixNodesAcrossGridRows) {
  core::ScenarioEngine engine(SharedPrefixSpec());
  const core::Report report = engine.Run();

  // Each shared stage compiled (and therefore ran) exactly once.
  EXPECT_EQ(engine.stats().mechanism_nodes, 6u);
  EXPECT_EQ(engine.stats().stage_reuses, 6u);
  EXPECT_EQ(engine.stats().evaluator_nodes, 8u);
  EXPECT_TRUE(report.AllOk());

  // Rows are named by the canonical chain name, and the privacy column
  // (certification) is present for every row.
  std::size_t cert_rows = 0;
  for (const core::ReportRow& row : report.rows()) {
    EXPECT_NE(row.mechanism.find('|'), std::string::npos);
    if (row.metric == "cert_certified") ++cert_rows;
  }
  EXPECT_EQ(cert_rows, 4u);
}

TEST(ChainComposition, EngineReportByteIdenticalAcrossThreadsAndCache) {
  const fs::path dir = fs::temp_directory_path() / "mobipriv_chain_cache";
  fs::remove_all(dir);
  fs::create_directories(dir);

  core::ScenarioSpec base = SharedPrefixSpec();
  base.threads = 1;
  const std::string reference = core::RunScenario(base).ToCsv();

  base.threads = 4;
  EXPECT_EQ(core::RunScenario(base).ToCsv(), reference);

  // Cold cache: 6 stage nodes spill 6 entries; report unchanged.
  core::ScenarioSpec cached = SharedPrefixSpec();
  cached.mechanism_cache_dir = (dir / "cache").string();
  core::ScenarioEngine cold(cached);
  EXPECT_EQ(cold.Run().ToCsv(), reference);
  EXPECT_EQ(cold.stats().cache_misses, 6u);
  EXPECT_EQ(cold.stats().cache_hits, 0u);

  // Warm cache at a different thread count: all hits, report unchanged.
  cached = SharedPrefixSpec();
  cached.mechanism_cache_dir = (dir / "cache").string();
  cached.threads = 4;
  core::ScenarioEngine warm(cached);
  EXPECT_EQ(warm.Run().ToCsv(), reference);
  EXPECT_EQ(warm.stats().cache_hits, 6u);
  EXPECT_EQ(warm.stats().cache_misses, 0u);
  fs::remove_all(dir);
}

TEST(ChainComposition, EngineStageBytesFollowThePerPrefixRngDiscipline) {
  // Recompute the 3-stage chain by hand under the engine's documented
  // discipline — stage k's rng seeded from (cell seed, FNV of the PREFIX
  // canonical name) — and check the engine's terminal output (read back
  // from its cache entry) matches bit for bit.
  const fs::path dir = fs::temp_directory_path() / "mobipriv_chain_rng";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::uint64_t seed = 7;
  const std::vector<std::string> stages = {
      "geo_ind[eps=0.05]", "downsampling[dt=120]", "mixzone[r=100m]"};

  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  spec.mechanisms = {JoinStages(stages)};
  spec.evaluators = {"spatial_distortion"};
  spec.seeds = {seed};
  spec.mechanism_cache_dir = (dir / "cache").string();
  core::ScenarioEngine engine(spec);
  (void)engine.Run();
  EXPECT_EQ(engine.stats().cache_misses, 3u);

  const model::DatasetView source = World();
  const std::uint64_t fingerprint = core::OutputCache::FingerprintView(source);
  core::OutputCache cache((dir / "cache").string());

  model::EventStore manual;
  model::DatasetView input = source;
  std::string prefix;
  for (const std::string& text : stages) {
    if (!prefix.empty()) prefix += "|";
    prefix += mech::CreateMechanism(text)->Name();
    util::Rng rng(util::DeriveStreamSeed(
        seed, model::Fnv1a64(prefix.data(), prefix.size()), 0));
    manual = mech::CreateMechanism(text)->ApplyToStore(input, rng);
    input = manual.View();

    model::EventStore cached_stage;
    ASSERT_TRUE(cache.TryLoad(
        core::OutputCache::KeyText(prefix, fingerprint, seed), cached_stage))
        << prefix;
    ExpectBitIdentical(cached_stage.View(), manual.View(), prefix);
  }

  fs::remove_all(dir);
}

// ---- Naming: chains never alias single mechanisms, and canonical-equal
// chain texts share one row. ----------------------------------------------

TEST(ChainComposition, ChainNamesNeverAliasSingleMechanismNames) {
  // "ours[speed+mix]" is ONE mechanism (internal pipeline); its name has
  // no top-level '|', so it can never collide with a chain's cache keys.
  const std::string ours = mech::ChainName("ours[speed+mix]");
  const std::string chain = mech::ChainName("speed_smoothing|mixzone");
  EXPECT_EQ(ours.find('|'), std::string::npos);
  EXPECT_NE(chain.find('|'), std::string::npos);
  EXPECT_NE(ours, chain);
  EXPECT_NE(core::OutputCache::KeyText(ours, 1, 1),
            core::OutputCache::KeyText(chain, 1, 1));

  // Chain names round-trip through ChainName like any other name.
  EXPECT_EQ(mech::ChainName(chain), chain);
}

TEST(ChainComposition, CanonicallyEqualChainTextsShareOneRow) {
  // "cloaking" canonicalizes to "cloaking[cell=250m]": both texts name the
  // same chain, so the engine compiles one row (and two stage nodes).
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  spec.mechanisms = {"cloaking|identity", "cloaking[cell=250m]|identity"};
  spec.evaluators = {"spatial_distortion"};
  spec.seeds = {5};
  core::ScenarioEngine engine(spec);
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().mechanism_nodes, 2u);
  EXPECT_EQ(engine.stats().stage_reuses, 0u);  // dedup is not a reuse
  for (const core::ReportRow& row : report.rows()) {
    EXPECT_EQ(row.mechanism, "cloaking[cell=250m]|identity");
  }
}

}  // namespace
}  // namespace mobipriv
