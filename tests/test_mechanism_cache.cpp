// The engine's `.mpc` mechanism-output cache: spill on miss, reuse on hit,
// and — the safety property — NEVER reuse a stale or corrupt entry:
//   * a sidecar whose recorded fingerprint no longer matches the bound
//     source reads as stale -> recompute (and overwrite);
//   * a payload that fails its section checksums reads as corrupt ->
//     recompute cleanly;
// and the report is byte-identical in every case (cache off, cold, warm,
// stale, corrupt) — the cache is a performance knob, not a semantic one.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/output_cache.h"
#include "core/scenario.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "synth/population.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 10;
    config.days = 1;
    config.seed = 555;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

struct CacheFixture : ::testing::Test {
  fs::path dir;
  std::string mpc;

  void SetUp() override {
    dir = fs::temp_directory_path() / "mobipriv_mech_cache";
    fs::remove_all(dir);
    fs::create_directories(dir);
    mpc = (dir / "world.mpc").string();
    model::WriteColumnar(model::EventStore::FromDataset(World()), mpc);
  }
  void TearDown() override { fs::remove_all(dir); }

  core::ScenarioSpec Spec() const {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::ColumnarFile(mpc);
    spec.mechanisms = {"cloaking", "geo_ind[eps=0.05]"};
    spec.evaluators = {"coverage", "trajectory_stats"};
    spec.seeds = {3, 4};
    spec.mechanism_cache_dir = (dir / "cache").string();
    return spec;
  }

  std::vector<fs::path> CacheFiles(const std::string& extension) const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir / "cache")) {
      if (entry.path().extension() == extension) {
        files.push_back(entry.path());
      }
    }
    return files;
  }
};

TEST_F(CacheFixture, ColdMissesThenWarmHitsSameReport) {
  core::ScenarioEngine cold(Spec());
  const std::string cold_csv = cold.Run().ToCsv();
  EXPECT_EQ(cold.stats().cache_hits, 0u);
  EXPECT_EQ(cold.stats().cache_misses, 4u);  // 2 mechanisms x 2 seeds
  EXPECT_EQ(CacheFiles(".mpc").size(), 4u);
  EXPECT_EQ(CacheFiles(".key").size(), 4u);

  core::ScenarioEngine warm(Spec());
  const std::string warm_csv = warm.Run().ToCsv();
  EXPECT_EQ(warm.stats().cache_hits, 4u);
  EXPECT_EQ(warm.stats().cache_misses, 0u);
  EXPECT_EQ(cold_csv, warm_csv);

  // Cache off entirely: still the same report.
  core::ScenarioSpec uncached = Spec();
  uncached.mechanism_cache_dir.clear();
  core::ScenarioEngine off(uncached);
  EXPECT_EQ(off.Run().ToCsv(), cold_csv);
  EXPECT_EQ(off.stats().cache_hits + off.stats().cache_misses, 0u);
}

TEST_F(CacheFixture, StaleFingerprintRecomputesNeverReuses) {
  core::ScenarioEngine cold(Spec());
  const std::string cold_csv = cold.Run().ToCsv();

  // Tamper every sidecar's fingerprint line: the entries now claim to
  // describe a DIFFERENT dataset. The engine must treat them as stale.
  for (const fs::path& key_path : CacheFiles(".key")) {
    std::ifstream in(key_path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const auto at = text.find("fingerprint ");
    ASSERT_NE(at, std::string::npos);
    text[at + 12] = text[at + 12] == 'f' ? '0' : 'f';
    std::ofstream out(key_path, std::ios::binary | std::ios::trunc);
    out << text;
  }

  core::ScenarioEngine stale(Spec());
  const std::string stale_csv = stale.Run().ToCsv();
  EXPECT_EQ(stale.stats().cache_hits, 0u) << "stale entry was reused";
  EXPECT_EQ(stale.stats().cache_misses, 4u);
  EXPECT_EQ(stale_csv, cold_csv);

  // The recompute overwrote the entries: the cache is healthy again.
  core::ScenarioEngine repaired(Spec());
  (void)repaired.Run();
  EXPECT_EQ(repaired.stats().cache_hits, 4u);
}

TEST_F(CacheFixture, CorruptPayloadRecomputesCleanly) {
  core::ScenarioEngine cold(Spec());
  const std::string cold_csv = cold.Run().ToCsv();

  // Flip bytes in the middle of every cached payload (past the header, in
  // column data): the section checksums must catch it.
  for (const fs::path& mpc_path : CacheFiles(".mpc")) {
    std::fstream file(mpc_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(fs::file_size(mpc_path) / 2));
    const char garbage[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
    file.write(garbage, sizeof(garbage));
  }

  core::ScenarioEngine corrupt(Spec());
  const std::string corrupt_csv = corrupt.Run().ToCsv();
  EXPECT_EQ(corrupt.stats().cache_hits, 0u) << "corrupt entry was reused";
  EXPECT_EQ(corrupt.stats().cache_misses, 4u);
  EXPECT_EQ(corrupt_csv, cold_csv);
}

TEST_F(CacheFixture, DifferentSeedsGetDistinctEntries) {
  core::ScenarioSpec spec = Spec();
  spec.seeds = {3};
  core::ScenarioEngine first(spec);
  (void)first.Run();
  EXPECT_EQ(first.stats().cache_misses, 2u);

  // A new seed shares nothing with seed 3's entries...
  spec.seeds = {4};
  core::ScenarioEngine second(spec);
  (void)second.Run();
  EXPECT_EQ(second.stats().cache_hits, 0u);
  EXPECT_EQ(second.stats().cache_misses, 2u);

  // ...and the union run hits both.
  spec.seeds = {3, 4};
  core::ScenarioEngine both(spec);
  (void)both.Run();
  EXPECT_EQ(both.stats().cache_hits, 4u);
}

TEST_F(CacheFixture, NeighbourSpecNeverReadsAnotherSpecsEntry) {
  // speed_smoothing drops traces shorter than min_len, so the two specs
  // publish different data. Their names once collided on
  // "speed_smoothing[eps=100m]", and the second run then read the first
  // one's entry.
  const auto terminal = [&](const std::string& mechanism, bool cached) {
    core::ScenarioSpec spec = Spec();
    spec.mechanisms = {mechanism};
    spec.seeds = {3};
    if (!cached) spec.mechanism_cache_dir.clear();
    core::ScenarioEngine engine(spec);
    std::vector<model::EventStore> terminals;
    EXPECT_TRUE(engine.Run(&terminals).AllOk());
    EXPECT_EQ(terminals.size(), 1u);
    return core::OutputCache::FingerprintView(terminals.front().View());
  };
  const std::string tuned = "speed_smoothing[min_len=5000m]";
  ASSERT_NE(terminal("speed_smoothing", false), terminal(tuned, false));
  (void)terminal("speed_smoothing", true);
  EXPECT_EQ(terminal(tuned, true), terminal(tuned, false));
}

}  // namespace
}  // namespace mobipriv
