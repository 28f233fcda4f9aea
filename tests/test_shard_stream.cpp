// The out-of-core engine path: shard-streamed execution of a grid over a
// SaveShards directory must be a pure resource strategy — same Report,
// byte for byte, as the whole-view DAG, at any thread count, with no
// hidden materializations. These tests pin that equivalence plus the
// eligibility gating around it.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "core/shard_exec.h"
#include "mechanisms/registry.h"
#include "model/sharded_dataset.h"
#include "model/views.h"
#include "synth/population.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 24;
    config.days = 1;
    config.seed = 99;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

/// Shards World() into `shards` under a fresh directory, returns its path.
std::string MakeShardDir(const std::string& name, std::size_t shards) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  model::ShardedDataset::Partition(World(), shards).SaveShards(dir.string());
  return dir.string();
}

/// A grid every streamed-path precondition accepts: single-stage per-trace
/// mechanisms, foldable evaluators only.
core::ScenarioSpec FoldableSpec() {
  core::ScenarioSpec spec;
  spec.mechanisms = {"gaussian", "geo_ind[eps=0.01]", "cloaking"};
  spec.evaluators = {"trajectory_stats", "range_queries[n=32]"};
  spec.seeds = {5, 9};
  return spec;
}

TEST(ShardStream, ProbeAcceptsSaveShardsLayout) {
  const std::string dir = MakeShardDir("mobipriv_stream_probe", 4);
  const auto plan = core::ProbeShardStream(dir);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->shard_count, 4u);
  EXPECT_EQ(plan->global_names.size(), World().UserCount());
  EXPECT_EQ(plan->total_traces, World().TraceCount());
  // Canonical-order restriction: strictly ascending origin per shard.
  for (const auto& run : plan->origin) {
    for (std::size_t i = 1; i < run.size(); ++i) {
      EXPECT_LT(run[i - 1], run[i]);
    }
  }
  fs::remove_all(dir);
}

TEST(ShardStream, ReportByteIdenticalToWholeView) {
  const std::string dir = MakeShardDir("mobipriv_stream_identical", 6);

  // Reference: the whole-view DAG over the borrowed dataset.
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  core::ScenarioEngine whole(spec);
  const std::string reference = whole.Run().ToCsv();
  EXPECT_EQ(whole.stats().streamed_shards, 0u);
  EXPECT_EQ(whole.stats().source_traces, World().TraceCount());
  EXPECT_EQ(whole.stats().source_events, World().EventCount());

  // Streamed: same grid over the shard dir, at two thread counts. The
  // full-materialize and trace-copy counters stay flat — out-of-core
  // execution must not sneak a dataset (or per-trace AoS copies) into
  // memory to get its answer.
  for (const std::size_t threads : {1u, 4u}) {
    core::ScenarioSpec streamed_spec = FoldableSpec();
    streamed_spec.source = core::DatasetSourceSpec::ShardDir(dir);
    streamed_spec.threads = threads;
    const std::size_t materialized_before = model::FullMaterializeCount();
    const std::size_t copies_before = model::TraceCopyCount();
    core::ScenarioEngine streamed(std::move(streamed_spec));
    const core::Report report = streamed.Run();
    EXPECT_EQ(streamed.stats().streamed_shards, 6u) << "threads=" << threads;
    // Pass 0 counts the source it scans, as the whole-view bind does.
    EXPECT_EQ(streamed.stats().source_traces, whole.stats().source_traces);
    EXPECT_EQ(streamed.stats().source_events, whole.stats().source_events);
    EXPECT_TRUE(report.AllOk());
    EXPECT_EQ(report.ToCsv(), reference) << "threads=" << threads;
    EXPECT_EQ(model::FullMaterializeCount(), materialized_before);
    EXPECT_EQ(model::TraceCopyCount(), copies_before);
  }
  fs::remove_all(dir);
}

/// Per-trace test mechanism that copies its input and counts kernel calls.
/// ApplyToIndexedTrace runs the kernel exactly once per call, so the count
/// is the number of ApplyToIndexedTrace calls of the streamed executor.
std::atomic<std::size_t> g_kernel_calls{0};

class CountKernelCalls final : public mech::PerTraceMechanism {
 public:
  [[nodiscard]] std::string Name() const override {
    return "test_count_kernel_calls";
  }

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& /*rng*/) const override {
    g_kernel_calls.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      out.Append(trace.position(i), trace.time(i));
    }
  }
};

TEST(ShardStream, PublishesEachStageShardOnce) {
  // The streamed executor's only source-wide pre-pass is a read-only
  // extent scan; every (stage, shard) is published once, in pass 1. Two
  // seeds give two stage nodes.
  mech::RegisterMechanism("test_count_kernel_calls", [](const util::Spec&) {
    return std::make_unique<CountKernelCalls>();
  });
  const std::string dir = MakeShardDir("mobipriv_stream_publish_once", 4);
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.mechanisms = {"test_count_kernel_calls"};
  g_kernel_calls.store(0);
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().streamed_shards, 4u);
  EXPECT_TRUE(report.AllOk()) << report.ToCsv();
  EXPECT_EQ(g_kernel_calls.load(), 2 * World().TraceCount());
  fs::remove_all(dir);
}

/// The report without its header line.
std::string Body(const std::string& csv) {
  return csv.substr(csv.find('\n') + 1);
}

/// Runs FoldableSpec() over `dir` with `workers`, checking the stream
/// engaged, its prepare_nodes and that every row is ok; returns the CSV.
std::string RunStreamed(const std::string& dir,
                        std::vector<std::string> mechanisms,
                        std::vector<std::uint64_t> seeds,
                        std::size_t workers) {
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.mechanisms = std::move(mechanisms);
  spec.seeds = std::move(seeds);
  spec.workers = workers;
  // 2 prepared evaluators x seeds, whatever the row count.
  const std::size_t prepare_nodes = 2 * spec.seeds.size();
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_GT(engine.stats().streamed_shards, 0u);
  EXPECT_EQ(engine.stats().prepare_nodes, prepare_nodes);
  EXPECT_EQ(engine.stats().workers_spawned > 0, workers > 0);
  EXPECT_TRUE(report.AllOk());
  return report.ToCsv();
}

/// Each (row, seed) of a 3-row x 2-seed grid is byte-identical to that
/// row and seed run alone: the original side each column shares depends
/// on nothing a row or another seed adds. The second seed catches an
/// original side shared across seeds (range_queries' workload depends on
/// the seed).
void ExpectRowsIndependent(const std::string& dir, std::size_t workers) {
  const std::vector<std::string> rows = FoldableSpec().mechanisms;
  const std::vector<std::uint64_t> seeds = {1, 2};
  const std::string grid = RunStreamed(dir, rows, seeds, workers);
  std::string alone;
  for (const std::string& row : rows) {
    for (const std::uint64_t seed : seeds) {
      const std::string csv = RunStreamed(dir, {row}, {seed}, workers);
      alone += alone.empty() ? csv : Body(csv);
    }
  }
  EXPECT_EQ(grid, alone) << "workers=" << workers;
}

TEST(ShardStream, RowsAreIndependentOfTheGrid) {
  const std::string dir = MakeShardDir("mobipriv_stream_rows", 4);
  ExpectRowsIndependent(dir, 0);
  fs::remove_all(dir);
}

TEST(ShardStream, RowsAreIndependentOfTheGridUnderWorkers) {
  if (core::DefaultWorkerBinary().empty()) {
    GTEST_SKIP() << "mobipriv_worker binary not found next to the test "
                    "executable";
  }
  const std::string dir = MakeShardDir("mobipriv_stream_rows_workers", 4);
  ExpectRowsIndependent(dir, 2);
  fs::remove_all(dir);
}

TEST(ShardStream, ThrowingOriginalFoldFailsEveryCellOfItsColumn) {
  // The column's OriginalFold throws on shard 1. Every live cell of the
  // column fails with its text, as when each cell's own fold threw there,
  // and as the whole-view DAG reports a throwing Prepare. A stage that
  // fails on the last shard still skips only its own row's cells.
  const std::string dir = MakeShardDir("mobipriv_stream_original_throws", 4);
  const auto plan = core::ProbeShardStream(dir);
  ASSERT_TRUE(plan.has_value());
  ASSERT_FALSE(plan->origin[3].empty());
  const std::string failing =
      "test_fail_on_user[user=" +
      std::to_string(World().traces()[plan->origin[3].front()].user()) +
      "]";
  const auto run = [&](core::DatasetSourceSpec source,
                       const std::string& evaluator) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = std::move(source);
    spec.mechanisms.push_back(failing);
    spec.evaluators.push_back(evaluator);
    core::ScenarioEngine engine(std::move(spec));
    const std::string csv = engine.Run().ToCsv();
    // 4 rows x 2 seeds; the failing row's 2 stages fail and its 2 x 3
    // cells are skipped; the 3 x 2 live cells of the throwing column fail.
    EXPECT_EQ(engine.stats().failed_nodes, 2u + 6u) << evaluator;
    EXPECT_EQ(engine.stats().skipped_nodes, 6u) << evaluator;
    return std::make_pair(csv, engine.stats().streamed_shards);
  };
  const auto [reference, per_cell_shards] = run(
      core::DatasetSourceSpec::ShardDir(dir),
      "test_original_throws_per_cell[at=1]");
  EXPECT_EQ(per_cell_shards, 4u);
  EXPECT_NE(reference.find(",failed,test_original_throws: original side"),
            std::string::npos)
      << reference;
  EXPECT_NE(reference.find(",skipped,dependency failed: test_fail_on_user"),
            std::string::npos)
      << reference;
  const auto [streamed, streamed_shards] =
      run(core::DatasetSourceSpec::ShardDir(dir), "test_original_throws[at=1]");
  EXPECT_EQ(streamed_shards, 4u);
  EXPECT_EQ(streamed, reference);
  const auto [whole, whole_shards] =
      run(core::DatasetSourceSpec::Borrowed(World()),
          "test_original_throws[at=1]");
  EXPECT_EQ(whole_shards, 0u);
  EXPECT_EQ(whole, reference);
  fs::remove_all(dir);
}

TEST(ShardStream, FallsBackOnNonFoldableEvaluator) {
  const std::string dir = MakeShardDir("mobipriv_stream_fallback_eval", 3);
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.evaluators.push_back("coverage");  // whole-view only
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().streamed_shards, 0u);
  EXPECT_TRUE(report.AllOk());
  fs::remove_all(dir);
}

TEST(ShardStream, FallsBackOnCrossTraceMechanism) {
  const std::string dir = MakeShardDir("mobipriv_stream_fallback_mech", 3);
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.mechanisms.push_back("mixzone");  // cross-trace: needs the whole view
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().streamed_shards, 0u);
  EXPECT_TRUE(report.AllOk());
  fs::remove_all(dir);
}

TEST(ShardStream, FallsBackOnChainRow) {
  const std::string dir = MakeShardDir("mobipriv_stream_fallback_chain", 3);
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.mechanisms = {"geo_ind[eps=0.01]|cloaking"};  // multi-stage
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().streamed_shards, 0u);
  EXPECT_TRUE(report.AllOk());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mobipriv
