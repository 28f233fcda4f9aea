// Sharding contracts: stable user->shard assignment, exact Partition/Merge
// round trips at any shard count, and worker-count-invariant shard-wise
// pipeline runs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/anonymizer.h"
#include "mechanisms/identity.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"
#include "util/thread_pool.h"

namespace mobipriv {
namespace {

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

TEST(ShardedDataset, PartitionMergeRoundTripsAtAnyShardCount) {
  const model::Dataset dataset = TestWorld();
  for (const std::size_t shards : {1u, 3u, 8u, 16u}) {
    const auto sharded = model::ShardedDataset::Partition(dataset, shards);
    EXPECT_EQ(sharded.ShardCount(), shards);
    EXPECT_EQ(sharded.TraceCount(), dataset.TraceCount());
    EXPECT_EQ(sharded.EventCount(), dataset.EventCount());
    EXPECT_EQ(sharded.UserCount(), dataset.UserCount());
    ExpectDatasetsIdentical(sharded.Merge(), dataset);
  }
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

TEST(ShardedDataset, TransformShardedIsWorkerCountInvariant) {
  const model::Dataset dataset = TestWorld();
  const auto sharded = model::ShardedDataset::Partition(dataset, 3);
  const core::Anonymizer anonymizer;
  const auto run = [&](std::size_t threads, util::Rng& rng,
                       std::vector<core::PipelineReport>& reports) {
    const util::ScopedParallelism scope(threads);
    reports.assign(sharded.ShardCount(), {});
    return model::TransformSharded(
        sharded, rng,
        [&](const model::Dataset& shard, util::Rng& shard_rng,
            std::size_t s) {
          return anonymizer.ApplyWithReport(shard, shard_rng, reports[s]);
        });
  };

  util::Rng serial_rng(2015);
  std::vector<core::PipelineReport> serial_reports;
  const model::ShardedDataset serial_out =
      run(1, serial_rng, serial_reports);
  util::Rng parallel_rng(2015);
  std::vector<core::PipelineReport> parallel_reports;
  const model::ShardedDataset parallel_out =
      run(8, parallel_rng, parallel_reports);
  EXPECT_EQ(serial_rng.NextU64(), parallel_rng.NextU64());
  ASSERT_EQ(serial_reports.size(), parallel_reports.size());
  for (std::size_t s = 0; s < serial_reports.size(); ++s) {
    EXPECT_EQ(serial_reports[s].ToString(), parallel_reports[s].ToString());
  }
  ExpectDatasetsIdentical(serial_out.Merge(), parallel_out.Merge());
}

TEST(ShardedDataset, IdentityMechanismShardwisePreservesEverything) {
  const model::Dataset dataset = TestWorld();
  const auto sharded = model::ShardedDataset::Partition(dataset, 5);
  util::Rng rng(1);
  const mech::Identity identity;
  const auto out = model::TransformSharded(
      sharded, rng,
      [&](const model::Dataset& shard, util::Rng& shard_rng, std::size_t) {
        return identity.Apply(shard, shard_rng);
      });
  EXPECT_EQ(out.ShardCount(), sharded.ShardCount());
  EXPECT_EQ(out.EventCount(), dataset.EventCount());
  EXPECT_EQ(out.TraceCount(), dataset.TraceCount());
  // Identity keeps every shard's contents; the merged dataset holds the
  // same users and events (trace order is shard-order after a rebuild).
  const model::Dataset merged = out.Merge();
  EXPECT_EQ(merged.UserCount(), dataset.UserCount());
  EXPECT_EQ(merged.EventCount(), dataset.EventCount());
}

TEST(ShardedDataset, EmptyDatasetPartitions) {
  const model::Dataset empty;
  const auto sharded = model::ShardedDataset::Partition(empty, 4);
  EXPECT_EQ(sharded.TraceCount(), 0u);
  EXPECT_TRUE(sharded.Merge().empty());
}

// ---- Persisted shard directories (SaveShards / OpenShards) ------------------

TEST(ShardPersistence, SaveOpenMergeReproducesTheOriginalExactly) {
  namespace fs = std::filesystem;
  const model::Dataset world = TestWorld();
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(world, 3);
  const std::string dir =
      (fs::path(testing::TempDir()) / "shards_roundtrip").string();
  partition.SaveShards(dir);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest.mpm"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "shard-00000.mpc"));

  const model::ShardedDataset reopened =
      model::ShardedDataset::OpenShards(dir);
  ASSERT_EQ(reopened.ShardCount(), partition.ShardCount());
  EXPECT_EQ(reopened.UserCount(), partition.UserCount());
  for (std::size_t s = 0; s < partition.ShardCount(); ++s) {
    ExpectDatasetsIdentical(partition.shard(s), reopened.shard(s));
  }
  // The recorded original trace order survives the disk round trip, so
  // the merge is the *exact* input, not a shard-order concatenation.
  ExpectDatasetsIdentical(world, reopened.Merge());
}

TEST(ShardPersistence, PartialOpenLoadsOnlyOwnedShards) {
  namespace fs = std::filesystem;
  const model::Dataset world = TestWorld();
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(world, 4);
  const std::string dir =
      (fs::path(testing::TempDir()) / "shards_partial").string();
  partition.SaveShards(dir);

  const model::ShardedDataset mine =
      model::ShardedDataset::OpenShards(dir, {2});
  ASSERT_EQ(mine.ShardCount(), 4u);
  ExpectDatasetsIdentical(partition.shard(2), mine.shard(2));
  EXPECT_TRUE(mine.shard(0).empty());
  EXPECT_TRUE(mine.shard(1).empty());
  EXPECT_TRUE(mine.shard(3).empty());
  // Global name table still complete: local ids resolve to global names.
  EXPECT_EQ(mine.UserCount(), partition.UserCount());
  // Out-of-range shard index is a clean error.
  EXPECT_THROW(model::ShardedDataset::OpenShards(dir, {9}), model::IoError);
}

TEST(ShardPersistence, RebuiltShardsPersistWithoutOriginOrder) {
  namespace fs = std::filesystem;
  const model::Dataset world = TestWorld();
  model::ShardedDataset partition = model::ShardedDataset::Partition(world, 3);
  // Touching a shard invalidates the recorded order (same rule as Merge).
  partition.mutable_shard(0) = partition.shard(0).Clone();
  const std::string dir =
      (fs::path(testing::TempDir()) / "shards_rebuilt").string();
  partition.SaveShards(dir);
  const model::ShardedDataset reopened =
      model::ShardedDataset::OpenShards(dir);
  ExpectDatasetsIdentical(partition.Merge(), reopened.Merge());
}

TEST(ShardPersistence, CorruptManifestAndMissingShardAreCleanErrors) {
  namespace fs = std::filesystem;
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(TestWorld(), 2);
  const std::string dir =
      (fs::path(testing::TempDir()) / "shards_corrupt").string();
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
  EXPECT_THROW(model::ShardedDataset::OpenShards(dir), model::IoError);

  // Restore the manifest, remove a shard file instead.
  partition.SaveShards(dir);
  fs::remove(fs::path(dir) / "shard-00001.mpc");
  EXPECT_THROW(model::ShardedDataset::OpenShards(dir), model::IoError);
  // ... but a partial open of the surviving shard still works.
  const model::ShardedDataset survivor =
      model::ShardedDataset::OpenShards(dir, {0});
  ExpectDatasetsIdentical(partition.shard(0), survivor.shard(0));
}

TEST(ShardPersistence, ReadShardManifestExposesMetadataWithoutShardLoads) {
  namespace fs = std::filesystem;
  const model::Dataset world = TestWorld();
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(world, 3);
  const std::string dir =
      (fs::path(testing::TempDir()) / "shards_manifest_api").string();
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

TEST(ShardPersistence, OpenShardsErrorPaths) {
  namespace fs = std::filesystem;
  const model::Dataset world = TestWorld();
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(world, 3);
  const std::string dir =
      (fs::path(testing::TempDir()) / "shards_error_paths").string();
  partition.SaveShards(dir);

  // Opening a shard subset that doesn't exist: clean IoError, no crash.
  EXPECT_THROW((void)model::ShardedDataset::OpenShards(dir, {7}),
               model::IoError);
  EXPECT_THROW((void)model::ShardedDataset::OpenShards(dir, {0, 3}),
               model::IoError);

  // Manifest/shard contents mismatch: replace one shard file with a valid
  // .mpc holding a different trace count — the recorded origin table no
  // longer matches and the open must fail loudly.
  model::Dataset tiny;
  tiny.AddTraceForUser("intruder",
                       {{{45.0, 4.0}, 100}, {{45.001, 4.001}, 160}});
  model::WriteColumnar(model::EventStore::FromDataset(tiny),
                       model::ShardDataPath(dir, 0));
  EXPECT_THROW((void)model::ShardedDataset::OpenShards(dir),
               model::IoError);

  // A directory with no manifest at all.
  const std::string empty_dir =
      (fs::path(testing::TempDir()) / "shards_no_manifest").string();
  fs::create_directories(empty_dir);
  EXPECT_THROW((void)model::ShardedDataset::OpenShards(empty_dir),
               model::IoError);
  EXPECT_THROW((void)model::ReadShardManifest(empty_dir), model::IoError);
}

}  // namespace
}  // namespace mobipriv
