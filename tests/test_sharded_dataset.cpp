// Sharding contracts: stable user->shard assignment, and exact round trips
// of SaveShards directories through the engine's shard-directory reader
// (core::BoundSource::Bind) at any shard count, with clean IoErrors for
// every corruption the reader must refuse.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/scenario.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

model::Dataset TestWorld() {
  synth::PopulationConfig config;
  config.agents = 10;
  config.days = 2;
  config.seed = 321;
  return synth::SyntheticWorld(config).dataset();
}

void ExpectDatasetsIdentical(const model::Dataset& a,
                             const model::Dataset& b) {
  ASSERT_EQ(a.UserCount(), b.UserCount());
  for (model::UserId id = 0; id < a.UserCount(); ++id) {
    EXPECT_EQ(a.UserName(id), b.UserName(id));
  }
  ASSERT_EQ(a.TraceCount(), b.TraceCount());
  for (std::size_t t = 0; t < a.TraceCount(); ++t) {
    const model::Trace& ta = a.traces()[t];
    const model::Trace& tb = b.traces()[t];
    ASSERT_EQ(ta.user(), tb.user()) << "trace " << t;
    ASSERT_EQ(ta.size(), tb.size()) << "trace " << t;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].time, tb[i].time);
      EXPECT_EQ(ta[i].position.lat, tb[i].position.lat);
      EXPECT_EQ(ta[i].position.lng, tb[i].position.lng);
    }
  }
}

/// What the engine sees of a shard directory, as an owning dataset.
model::Dataset BindShardDir(const std::string& dir) {
  return core::BoundSource::Bind(core::DatasetSourceSpec::ShardDir(dir))
      .view()
      .Materialize();
}

std::string TempShardDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(ShardOfUser, StableAndInRange) {
  for (const std::size_t shards : {1u, 2u, 3u, 8u, 64u}) {
    for (const char* name : {"alice", "bob", "000", "user42", ""}) {
      const std::size_t s = model::ShardedDataset::ShardOfUser(name, shards);
      EXPECT_LT(s, shards);
      // Pure function: same inputs, same shard, every time.
      EXPECT_EQ(s, model::ShardedDataset::ShardOfUser(name, shards));
    }
  }
  // Single shard is always shard 0.
  EXPECT_EQ(model::ShardedDataset::ShardOfUser("anyone", 1), 0u);
}

TEST(ShardOfUser, SpreadsUsersAcrossShards) {
  // Not a statistical test — just: 100 users on 8 shards must not collapse
  // onto one shard.
  std::vector<std::size_t> counts(8, 0);
  for (int u = 0; u < 100; ++u) {
    ++counts[model::ShardedDataset::ShardOfUser("user" + std::to_string(u),
                                                counts.size())];
  }
  std::size_t used = 0;
  for (const std::size_t c : counts) used += c > 0 ? 1 : 0;
  EXPECT_GE(used, 6u);
}

TEST(ShardedDataset, AllTracesOfAUserLandInOneShard) {
  const model::Dataset dataset = TestWorld();
  const auto sharded = model::ShardedDataset::Partition(dataset, 4);
  for (model::UserId id = 0; id < dataset.UserCount(); ++id) {
    const std::string name = dataset.UserName(id);
    std::size_t shards_holding = 0;
    for (std::size_t s = 0; s < sharded.ShardCount(); ++s) {
      const auto local = sharded.shard(s).FindUser(name);
      if (!local.has_value()) continue;
      ++shards_holding;
      EXPECT_EQ(s, model::ShardedDataset::ShardOfUser(name, 4));
    }
    EXPECT_EQ(shards_holding, 1u) << name;
  }
}

// ---- Persisted shard directories (SaveShards -> the engine's bind) ---------

TEST(ShardPersistence, BindReproducesTheInputAtAnyShardCount) {
  model::Dataset world = TestWorld();
  // Users without traces must survive the round trip too.
  (void)world.InternUser("traceless-a");
  (void)world.InternUser("traceless-b");
  for (const std::size_t shards : {1u, 3u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = TempShardDir("shards_roundtrip");
    model::ShardedDataset::Partition(world, shards).SaveShards(dir);
    EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest.mpm"));
    EXPECT_TRUE(fs::exists(model::ShardDataPath(dir, shards - 1)));
    // The recorded original trace order survives the disk round trip, so
    // the bound view is the *exact* input, not a shard-order concatenation.
    ExpectDatasetsIdentical(world, BindShardDir(dir));
  }
}

TEST(ShardPersistence, EmptyDatasetRoundTrips) {
  const model::Dataset empty;
  for (const std::size_t shards : {1u, 3u, 8u}) {
    const std::string dir = TempShardDir("shards_empty");
    const auto partition = model::ShardedDataset::Partition(empty, shards);
    EXPECT_EQ(partition.ShardCount(), shards);
    partition.SaveShards(dir);
    const model::Dataset bound = BindShardDir(dir);
    EXPECT_TRUE(bound.empty()) << "shards=" << shards;
    EXPECT_EQ(bound.UserCount(), 0u);
  }
}

TEST(ShardPersistence, CorruptManifestAndMissingShardAreCleanErrors) {
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(TestWorld(), 2);
  const std::string dir = TempShardDir("shards_corrupt");
  partition.SaveShards(dir);

  // Flip one payload byte in the manifest: checksum mismatch.
  const fs::path manifest = fs::path(dir) / "manifest.mpm";
  {
    std::fstream f(manifest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(50);
    char c;
    f.seekg(50);
    f.get(c);
    c ^= 1;
    f.seekp(50);
    f.put(c);
  }
  EXPECT_THROW((void)BindShardDir(dir), model::IoError);

  // Restore the manifest, remove a shard file instead.
  partition.SaveShards(dir);
  ASSERT_NO_THROW((void)BindShardDir(dir));
  fs::remove(fs::path(dir) / "shard-00001.mpc");
  EXPECT_THROW((void)BindShardDir(dir), model::IoError);
}

TEST(ShardPersistence, ReadShardManifestExposesMetadataWithoutShardLoads) {
  const model::Dataset world = TestWorld();
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(world, 3);
  const std::string dir = TempShardDir("shards_manifest_api");
  partition.SaveShards(dir);

  const model::ShardManifest manifest = model::ReadShardManifest(dir);
  EXPECT_EQ(manifest.shard_count, 3u);
  EXPECT_EQ(manifest.global_names.size(), world.UserCount());
  ASSERT_TRUE(manifest.has_origin());
  std::size_t total = 0;
  for (const auto& o : manifest.origin) total += o.size();
  EXPECT_EQ(total, world.TraceCount());

  // ShardDataPath names the files SaveShards wrote.
  EXPECT_TRUE(fs::exists(model::ShardDataPath(dir, 0)));
  EXPECT_TRUE(fs::exists(model::ShardDataPath(dir, 2)));
  EXPECT_TRUE(model::ShardDataPath(dir, 1).ends_with("shard-00001.mpc"));
}

TEST(ShardPersistence, BindErrorPaths) {
  const model::Dataset world = TestWorld();
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(world, 3);
  const std::string dir = TempShardDir("shards_error_paths");
  partition.SaveShards(dir);

  // Manifest/shard contents mismatch: replace shard 0 with a valid .mpc
  // over the same users holding one trace more — the recorded origin table
  // no longer matches the trace count and the bind must fail loudly.
  model::Dataset grown = partition.shard(0).Clone();
  ASSERT_GT(grown.TraceCount(), 0u);
  grown.AddTrace(grown.traces().front());
  model::WriteColumnar(model::EventStore::FromDataset(grown),
                       model::ShardDataPath(dir, 0));
  EXPECT_THROW((void)BindShardDir(dir), model::IoError);

  // A directory with no manifest at all.
  const std::string empty_dir = TempShardDir("shards_no_manifest");
  fs::create_directories(empty_dir);
  EXPECT_THROW((void)BindShardDir(empty_dir), model::IoError);
  EXPECT_THROW((void)model::ReadShardManifest(empty_dir), model::IoError);
}

}  // namespace
}  // namespace mobipriv
