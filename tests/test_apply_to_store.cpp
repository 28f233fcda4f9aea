// ApplyToStore is every mechanism's one implementation. Its output bytes
// and rng consumption are pinned per registry mechanism as golden digests
// (at worker counts 1 and 4, and through the Apply adapter), so any change
// to what a mechanism publishes fails here first. A chain is not a
// mechanism, so its pin is the scenario engine's terminal store.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/experiment.h"
#include "core/output_cache.h"
#include "core/scenario.h"
#include "mechanisms/registry.h"
#include "mechanisms/speed_smoothing.h"
#include "model/event_store.h"
#include "model/views.h"
#include "synth/population.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv {
namespace {

const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 12;
    config.days = 1;
    config.seed = 321;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

/// Every mechanism the registry can spell, including the whole-dataset
/// ones (mixzone, wait4me, the composed "ours" pipelines).
std::vector<std::string> AllSpecs() {
  std::vector<std::string> specs =
      core::StandardRosterSpecs({0.1, 0.01});
  specs.push_back("mixzone");
  specs.push_back("speed_smoothing");
  specs.push_back("wait4me[k=2,delta=800m]");
  return specs;
}

/// Pinned output of ApplyToStore on World() with Rng(99): the store's
/// OutputCache::FingerprintView (names, trace table and lat/lng/time bit
/// patterns) and the caller rng's next draw afterwards. Any change to a
/// mechanism's bytes or to its rng consumption trips this table.
struct Golden {
  const char* spec;
  std::uint64_t fingerprint;
  std::uint64_t next_draw;
};

constexpr Golden kGolden[] = {
    {"identity", 0x4a8030983a3eb371ULL, 0x2c768082a975fe84ULL},
    {"ours[speed+mix]", 0x40cfb2807acc7c0dULL, 0x88bab0c07d011226ULL},
    {"ours[speed]", 0x69b74e0af4aeb991ULL, 0xccc4218daa89f206ULL},
    {"ours[mix]", 0x0414ddcccc3f600eULL, 0x6e95e031a3371f38ULL},
    {"geo_ind[eps=0.1000]", 0x4807fce1f295b6a1ULL, 0xccc4218daa89f206ULL},
    {"geo_ind[eps=0.0100]", 0x1145c8295687f242ULL, 0xccc4218daa89f206ULL},
    {"wait4me", 0xdf327a63d3e433b7ULL, 0x2c768082a975fe84ULL},
    {"cloaking", 0x368f9f5fd314a159ULL, 0xccc4218daa89f206ULL},
    {"gaussian", 0x167a942b5e2b5499ULL, 0xccc4218daa89f206ULL},
    {"downsampling", 0x664805227ebfa028ULL, 0xccc4218daa89f206ULL},
    {"mixzone", 0x0414ddcccc3f600eULL, 0x6e95e031a3371f38ULL},
    {"speed_smoothing", 0x69b74e0af4aeb991ULL, 0xccc4218daa89f206ULL},
    {"wait4me[k=2,delta=800m]", 0x18a7a02bdda28d8cULL,
     0x2c768082a975fe84ULL},
};

TEST(ApplyToStore, GoldenDigestsForEveryRegistryMechanism) {
  const std::vector<std::string> specs = AllSpecs();
  ASSERT_EQ(specs.size(), std::size(kGolden));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const util::ScopedParallelism scope(threads);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string& spec = specs[i];
      ASSERT_EQ(spec, kGolden[i].spec);
      const std::string context = spec + " @threads=" + std::to_string(threads);
      const auto mechanism = mech::CreateMechanism(spec);
      util::Rng rng(99);
      const model::EventStore store = mechanism->ApplyToStore(World(), rng);
      const std::uint64_t fingerprint =
          core::OutputCache::FingerprintView(store.View());
      const std::uint64_t next_draw = rng.NextU64();
      EXPECT_EQ(fingerprint, kGolden[i].fingerprint) << context;
      EXPECT_EQ(next_draw, kGolden[i].next_draw) << context;
      if (fingerprint != kGolden[i].fingerprint ||
          next_draw != kGolden[i].next_draw) {
        // Copy-pastable row for a deliberate re-pin.
        std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                    spec.c_str(), static_cast<unsigned long long>(fingerprint),
                    static_cast<unsigned long long>(next_draw));
      }

      // The AoS adapter publishes the same bytes and draws alike.
      util::Rng aos_rng(99);
      const model::Dataset aos = mechanism->Apply(World(), aos_rng);
      EXPECT_EQ(core::OutputCache::FingerprintView(aos),
                kGolden[i].fingerprint)
          << context << " via Apply";
      EXPECT_EQ(aos_rng.NextU64(), kGolden[i].next_draw)
          << context << " via Apply";
    }
  }
}

TEST(ApplyToStore, GoldenDigestOfAnEngineChainTerminal) {
  // A chain is not a mechanism: its one realization is the scenario
  // engine's plan, one node per stage, each drawing from its own
  // per-prefix stream. Pinned here as the terminal store the engine hands
  // a publisher, on World() with seed 99.
  constexpr std::uint64_t kFingerprint = 0x36f0d1001800a642ULL;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::Borrowed(World());
    spec.mechanisms = {"geo_ind[eps=0.01]|downsampling|mixzone"};
    spec.seeds = {99};
    spec.threads = threads;
    core::ScenarioEngine engine(std::move(spec));
    std::vector<model::EventStore> terminals;
    ASSERT_TRUE(engine.Run(&terminals).AllOk());
    ASSERT_EQ(terminals.size(), 1u);
    const std::uint64_t fingerprint =
        core::OutputCache::FingerprintView(terminals.front().View());
    EXPECT_EQ(fingerprint, kFingerprint) << "threads=" << threads;
    if (fingerprint != kFingerprint) {
      std::printf("    kFingerprint = 0x%016llxULL\n",
                  static_cast<unsigned long long>(fingerprint));
    }
  }
}

TEST(ApplyToStore, PerTraceMechanismsPerformZeroTraceCopies) {
  // The columns kernels read views and write column buffers: no
  // TraceView::Materialize anywhere on the store path.
  const model::EventStore source = model::EventStore::FromDataset(World());
  for (const char* spec :
       {"speed_smoothing", "geo_ind[eps=0.01]", "cloaking", "gaussian",
        "downsampling", "identity"}) {
    const auto mechanism = mech::CreateMechanism(spec);
    util::Rng rng(5);
    const std::size_t copies_before = model::TraceCopyCount();
    const model::EventStore out =
        mechanism->ApplyToStore(source.View(), rng);
    EXPECT_EQ(model::TraceCopyCount(), copies_before) << spec;
    EXPECT_GT(out.EventCount(), 0u) << spec;
  }
}

TEST(ApplyToStore, SuppressedTracesAreSkippedNamesKept) {
  // speed_smoothing drops short traces: the store must skip their ranges
  // but keep the full user name table (ids stay aligned with the input).
  mech::SpeedSmoothing smoothing;  // default min_length drops short traces
  util::Rng rng(1);
  const model::EventStore store = smoothing.ApplyToStore(World(), rng);
  EXPECT_EQ(store.UserCount(), World().UserCount());
  EXPECT_LE(store.TraceCount(), World().TraceCount());
  for (std::size_t t = 0; t < store.TraceCount(); ++t) {
    EXPECT_GT(store.TraceSize(t), 0u);
  }
}

}  // namespace
}  // namespace mobipriv
