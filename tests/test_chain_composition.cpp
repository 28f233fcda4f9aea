// Differential tests for mechanism composition ("a|b|c"):
//   * a monolithic ChainMechanism is bitwise identical to manually
//     applying its stages in sequence with ONE rng — on the AoS path
//     (Apply) and the SoA path (ApplyToStore), at 1 and 4 workers;
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
#include "mechanisms/chain.h"
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

/// Manual sequential staging with one rng — the reference ChainMechanism
/// must reproduce: stage k starts drawing where stage k-1 stopped.
model::Dataset ManualApply(const std::vector<std::string>& stages,
                           const model::Dataset& input, util::Rng& rng) {
  model::Dataset current = input;
  for (const std::string& text : stages) {
    current = mech::CreateMechanism(text)->Apply(current, rng);
  }
  return current;
}

model::EventStore ManualApplyToStore(const std::vector<std::string>& stages,
                                     const model::DatasetView& input,
                                     util::Rng& rng) {
  model::EventStore store;
  model::DatasetView view = input;
  for (const std::string& text : stages) {
    store = mech::CreateMechanism(text)->ApplyToStore(view, rng);
    view = store.View();
  }
  return store;
}

std::string JoinStages(const std::vector<std::string>& stages) {
  std::string text;
  for (const std::string& stage : stages) {
    if (!text.empty()) text += "|";
    text += stage;
  }
  return text;
}

void ExpectChainMatchesManual(const std::vector<std::string>& stages,
                              std::uint64_t seed) {
  const std::string text = JoinStages(stages);
  const auto chain = mech::CreateMechanism(text);

  // AoS path.
  util::Rng chain_rng(seed);
  util::Rng manual_rng(seed);
  const model::Dataset via_chain = chain->Apply(World(), chain_rng);
  const model::Dataset via_manual = ManualApply(stages, World(), manual_rng);
  ExpectBitIdentical(via_chain, via_manual, text + " [Apply]");

  // SoA path (and cross-path: the store must be FromDataset(Apply(...))).
  util::Rng store_rng(seed);
  util::Rng store_manual_rng(seed);
  const model::DatasetView input = World();
  const model::EventStore store_chain = chain->ApplyToStore(input, store_rng);
  const model::EventStore store_manual =
      ManualApplyToStore(stages, input, store_manual_rng);
  ExpectBitIdentical(store_chain.View(), store_manual.View(),
                     text + " [ApplyToStore]");
  ExpectBitIdentical(store_chain.View(), via_chain, text + " [store vs AoS]");
}

TEST(ChainComposition, PairsMatchManualStagingAtBothThreadLevels) {
  const std::vector<std::string> pool = {"geo_ind[eps=0.05]",
                                         "downsampling[dt=120]", "cloaking",
                                         "mixzone[r=100m]"};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const util::ScopedParallelism scope(threads);
    for (const std::string& a : pool) {
      for (const std::string& b : pool) {
        ExpectChainMatchesManual({a, b}, 17);
      }
    }
  }
}

TEST(ChainComposition, EveryRegistryBaseChainsAfterAStochasticStage) {
  // Every registered base must compose: bare base as the second stage of a
  // chain behind a stochastic first stage (so the rng handoff position is
  // exercised for every mechanism).
  for (const std::string& base : mech::RegisteredMechanismBases()) {
    ExpectChainMatchesManual({"gaussian", base}, 23);
  }
}

TEST(ChainComposition, TriplesMatchManualStaging) {
  const util::ScopedParallelism scope(4);
  ExpectChainMatchesManual(
      {"geo_ind[eps=0.05]", "downsampling[dt=120]", "mixzone[r=100m]"}, 31);
  ExpectChainMatchesManual({"cloaking", "gaussian", "downsampling[dt=120]"},
                           31);
  ExpectChainMatchesManual(
      {"mixzone[r=100m]", "geo_ind[eps=0.05]", "cloaking"}, 31);
}

TEST(ChainComposition, ChainMechanismValidatesItsStages) {
  using StageList = std::vector<std::unique_ptr<mech::Mechanism>>;
  EXPECT_THROW(mech::ChainMechanism{StageList{}}, std::invalid_argument);
  EXPECT_THROW((void)mech::CreateMechanism("geo_ind[eps=0.05]|warp_drive"),
               util::SpecError);
  // Single-stage chain text is the mechanism itself, no wrapper name.
  EXPECT_EQ(mech::CreateChain("cloaking")->Name(),
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

  // ... and this intentionally differs from the monolithic one-rng chain.
  util::Rng mono_rng(util::DeriveStreamSeed(seed, 0, 0));
  const model::EventStore mono =
      mech::CreateMechanism(JoinStages(stages))->ApplyToStore(source, mono_rng);
  const bool identical =
      mono.EventCount() == manual.EventCount() &&
      std::memcmp(mono.lat().data(), manual.lat().data(),
                  mono.EventCount() * sizeof(double)) == 0;
  EXPECT_FALSE(identical)
      << "engine per-prefix streams unexpectedly matched the monolithic "
         "single-rng chain";
  fs::remove_all(dir);
}

// ---- Naming: chains never alias single mechanisms, and canonical-equal
// chain texts share one row. ----------------------------------------------

TEST(ChainComposition, ChainNamesNeverAliasSingleMechanismNames) {
  // "ours[speed+mix]" is ONE mechanism (internal pipeline); its name has
  // no top-level '|', so it can never collide with a chain's cache keys.
  const std::string ours = mech::CreateMechanism("ours[speed+mix]")->Name();
  const std::string chain =
      mech::CreateMechanism("speed_smoothing|mixzone")->Name();
  EXPECT_EQ(ours.find('|'), std::string::npos);
  EXPECT_NE(chain.find('|'), std::string::npos);
  EXPECT_NE(ours, chain);
  EXPECT_NE(core::OutputCache::KeyText(ours, 1, 1),
            core::OutputCache::KeyText(chain, 1, 1));

  // Chain names round-trip through the registry like any other name.
  EXPECT_EQ(mech::CreateMechanism(chain)->Name(), chain);
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
