// ColumnarAppender contracts: bitwise equivalence with the one-shot
// writer at every flush-chunk size, manifest merging of independently
// written shard files, crash safety of the append commit path under fault
// injection, and the SaveShards fingerprint skip.
#include "model/columnar_append.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"
#include "util/fault.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;
namespace fault = util::fault;

const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 12;
    config.days = 1;
    config.seed = 7;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("mobipriv_append_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

struct DisarmGuard {
  ~DisarmGuard() { fault::DisarmAll(); }
};

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Appends every trace of `store` through an appender (names interned in
/// store order, so ids match) and finalizes.
void AppendStore(const model::EventStore& store, const std::string& path,
                 std::size_t flush_chunk_events) {
  model::ColumnarAppender::Options options;
  options.flush_chunk_events = flush_chunk_events;
  model::ColumnarAppender appender(path, options);
  for (const std::string& name : store.names()) {
    (void)appender.InternUser(name);
  }
  for (std::size_t i = 0; i < store.TraceCount(); ++i) {
    appender.AppendTrace(store.trace_table()[i].user, store.View(i));
  }
  appender.Finalize();
}

bool NoTempFiles(const fs::path& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return false;
  }
  return true;
}

TEST(ColumnarAppend, BitwiseIdenticalToWriteColumnarAtAnyChunkSize) {
  ScratchDir scratch("bitwise");
  const model::EventStore store = model::EventStore::FromDataset(World());
  const fs::path reference = scratch.path / "reference.mpc";
  model::WriteColumnar(store, reference.string());
  const std::string expected = ReadFileBytes(reference);
  ASSERT_FALSE(expected.empty());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{1000}, std::size_t{1} << 16}) {
    const fs::path out = scratch.path / ("appended_" +
                                         std::to_string(chunk) + ".mpc");
    AppendStore(store, out.string(), chunk);
    EXPECT_EQ(ReadFileBytes(out), expected) << "chunk=" << chunk;
  }
  EXPECT_TRUE(NoTempFiles(scratch.path));
}

TEST(ColumnarAppend, EmptyAppenderMatchesEmptyStore) {
  ScratchDir scratch("empty");
  const model::EventStore store;
  const fs::path reference = scratch.path / "reference.mpc";
  model::WriteColumnar(store, reference.string());
  const fs::path out = scratch.path / "appended.mpc";
  AppendStore(store, out.string(), 1);
  EXPECT_EQ(ReadFileBytes(out), ReadFileBytes(reference));
}

TEST(ColumnarAppend, MergedManifestRoundTripsThroughBind) {
  ScratchDir scratch("merge");
  constexpr std::size_t kShards = 3;
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(World(), kShards);

  // Write each shard independently — the multi-writer ingestion shape —
  // then stitch the directory together with a merged manifest.
  for (std::size_t s = 0; s < kShards; ++s) {
    AppendStore(model::EventStore::FromDataset(partition.shard(s)),
                model::ShardDataPath(scratch.path.string(), s), 64);
  }
  model::MergeShardManifests(scratch.path.string(), kShards);

  // A merged manifest records no origin order, so the engine's bind lays
  // traces out in (shard, local index) order; every trace must come back
  // bit-exact, under its original external user name.
  const model::Dataset merged =
      core::BoundSource::Bind(
          core::DatasetSourceSpec::ShardDir(scratch.path.string()))
          .view()
          .Materialize();
  EXPECT_EQ(merged.UserCount(), World().UserCount());
  EXPECT_EQ(merged.TraceCount(), World().TraceCount());
  EXPECT_EQ(merged.EventCount(), World().EventCount());
  std::size_t m = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const model::Dataset& shard = partition.shard(s);
    for (const model::Trace& want : shard.traces()) {
      ASSERT_LT(m, merged.TraceCount());
      const model::Trace& got = merged.traces()[m++];
      EXPECT_EQ(merged.UserName(got.user()), shard.UserName(want.user()));
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t e = 0; e < want.size(); ++e) {
        EXPECT_EQ(got[e], want[e]);
      }
    }
  }
  EXPECT_EQ(m, merged.TraceCount());
}

TEST(ColumnarAppend, TornFinalizeLeavesDestinationIntact) {
  DisarmGuard guard;
  ScratchDir scratch("torn");
  const model::EventStore store = model::EventStore::FromDataset(World());
  const fs::path out = scratch.path / "x.mpc";

  // Publish a healthy file first; the torn re-append must not touch it.
  AppendStore(store, out.string(), 128);
  const std::string healthy = ReadFileBytes(out);

  for (const std::string_view point : {fault::points::kColumnarWriteOpen,
                                       fault::points::kColumnarWriteShort,
                                       fault::points::kColumnarWriteCommit}) {
    SCOPED_TRACE(std::string(point));
    fault::Config config;
    if (point == fault::points::kColumnarWriteShort) {
      config.mode = fault::Mode::kShortIo;
      config.bytes = 64;
    }
    fault::Arm(point, config);
    EXPECT_THROW(AppendStore(store, out.string(), 128), model::IoError);
    fault::DisarmAll();
    EXPECT_EQ(ReadFileBytes(out), healthy) << "destination was disturbed";
    EXPECT_TRUE(NoTempFiles(scratch.path)) << "spill or temp file leaked";
  }
}

TEST(ColumnarAppend, AbortDropsEveryTemporary) {
  ScratchDir scratch("abort");
  const model::EventStore store = model::EventStore::FromDataset(World());
  const fs::path out = scratch.path / "x.mpc";
  {
    model::ColumnarAppender::Options options;
    options.flush_chunk_events = 16;  // force spills
    model::ColumnarAppender appender(out.string(), options);
    for (const std::string& name : store.names()) {
      (void)appender.InternUser(name);
    }
    for (std::size_t i = 0; i < store.TraceCount(); ++i) {
      appender.AppendTrace(store.trace_table()[i].user, store.View(i));
    }
    appender.Abort();
  }
  EXPECT_FALSE(fs::exists(out));
  EXPECT_TRUE(fs::is_empty(scratch.path));
}

TEST(ColumnarAppend, SaveShardsSkipsUnchangedShards) {
  ScratchDir scratch("skip");
  constexpr std::size_t kShards = 4;
  const model::ShardedDataset partition =
      model::ShardedDataset::Partition(World(), kShards);

  model::ShardedDataset::SaveStats first;
  partition.SaveShards(scratch.path.string(), &first);
  EXPECT_EQ(first.shards_written, kShards);
  EXPECT_EQ(first.shards_skipped, 0u);

  // Identical content: the fingerprints match, nothing is republished.
  model::ShardedDataset::SaveStats second;
  partition.SaveShards(scratch.path.string(), &second);
  EXPECT_EQ(second.shards_written, 0u);
  EXPECT_EQ(second.shards_skipped, kShards);

  // The directory still binds back to the input.
  const core::BoundSource bound = core::BoundSource::Bind(
      core::DatasetSourceSpec::ShardDir(scratch.path.string()));
  EXPECT_EQ(bound.view().TraceCount(), World().TraceCount());
  EXPECT_EQ(bound.view().EventCount(), World().EventCount());
}

}  // namespace
}  // namespace mobipriv
