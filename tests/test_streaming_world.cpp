// The streaming world generator: bounded-memory generation must be a pure
// resource strategy. Same bytes at every flush-chunk size, a directory
// ProbeShardStream accepts, the engine's bind round-trips in generation
// order, and the engine reports identically whether it streams the
// directory or binds it whole.
#include "synth/streaming_world.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/engine.h"
#include "core/scenario.h"
#include "model/sharded_dataset.h"
#include "util/time_utils.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("mobipriv_sworld_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

synth::StreamingWorldConfig SmallConfig() {
  synth::StreamingWorldConfig config;
  config.population.agents = 30;
  config.population.days = 1;
  config.population.seed = 123;
  config.shard_count = 5;
  return config;
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(StreamingWorld, ByteIdenticalAtAnyFlushChunkSize) {
  ScratchDir a("chunk_a");
  ScratchDir b("chunk_b");
  synth::StreamingWorldConfig config = SmallConfig();
  config.flush_chunk_events = 1;
  const auto stats_a = synth::GenerateShardedWorld(config, a.path.string());
  config.flush_chunk_events = 1u << 20;
  const auto stats_b = synth::GenerateShardedWorld(config, b.path.string());

  EXPECT_EQ(stats_a.traces, stats_b.traces);
  EXPECT_EQ(stats_a.events, stats_b.events);
  EXPECT_GT(stats_a.events, 0u);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    const std::string name = fs::path(model::ShardDataPath("", s)).filename();
    EXPECT_EQ(ReadFileBytes(a.path / name), ReadFileBytes(b.path / name))
        << name;
  }
  EXPECT_EQ(ReadFileBytes(a.path / "manifest.mpm"),
            ReadFileBytes(b.path / "manifest.mpm"));
}

TEST(StreamingWorld, BindRoundTripsInGenerationOrder) {
  ScratchDir scratch("roundtrip");
  const auto stats =
      synth::GenerateShardedWorld(SmallConfig(), scratch.path.string());
  EXPECT_EQ(model::ReadShardManifest(scratch.path.string()).shard_count,
            stats.shards);

  const model::Dataset merged =
      core::BoundSource::Bind(
          core::DatasetSourceSpec::ShardDir(scratch.path.string()))
          .view()
          .Materialize();
  EXPECT_EQ(merged.TraceCount(), stats.traces);
  EXPECT_EQ(merged.EventCount(), stats.events);
  // Every agent is in the global table, traces or not.
  EXPECT_EQ(merged.UserCount(), SmallConfig().population.agents);

  // The recorded origin replays generation order: agents ascend, and each
  // agent's traces are consecutive and time-ordered within a day.
  std::size_t last_agent = 0;
  for (const model::Trace& trace : merged.traces()) {
    const std::string name = merged.UserName(trace.user());
    ASSERT_TRUE(name.rfind("agent", 0) == 0) << name;
    const std::size_t agent = std::stoul(name.substr(5));
    EXPECT_GE(agent, last_agent) << "traces out of generation order";
    last_agent = agent;
    EXPECT_GE(trace.size(), 2u);
  }
}

TEST(StreamingWorld, EngineStreamsGeneratedDirectoryIdentically) {
  ScratchDir scratch("engine");
  (void)synth::GenerateShardedWorld(SmallConfig(), scratch.path.string());
  ASSERT_TRUE(core::ProbeShardStream(scratch.path.string()).has_value());

  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::ShardDir(scratch.path.string());
  spec.mechanisms = {"gaussian", "cloaking"};
  spec.evaluators = {"trajectory_stats", "range_queries[n=16]"};
  spec.seeds = {3};

  // Whole-view reference: the watchdog (generous enough to never fire)
  // disqualifies streaming without affecting any result.
  core::ScenarioSpec whole_spec = spec;
  whole_spec.node_timeout_ms = 1e9;
  core::ScenarioEngine whole(std::move(whole_spec));
  const std::string reference = whole.Run().ToCsv();
  ASSERT_EQ(whole.stats().streamed_shards, 0u);

  core::ScenarioEngine streamed(std::move(spec));
  const core::Report report = streamed.Run();
  EXPECT_EQ(streamed.stats().streamed_shards, SmallConfig().shard_count);
  EXPECT_TRUE(report.AllOk());
  EXPECT_EQ(report.ToCsv(), reference);
}

}  // namespace
}  // namespace mobipriv
