// Fault-tolerant multi-process shard execution (core/shard_exec.h): the
// merged Report must be byte-identical to the in-process run at ANY
// worker count — including runs where workers are SIGKILLed mid-stage
// and recovered by retry — and retry exhaustion must degrade exactly the
// affected stage's rows with machine-independent error text. Worker-side
// fault points are armed through the MOBIPRIV_FAULTS environment (the
// supervisor passes its environment to every worker it spawns); setting
// the variable mid-test does NOT arm this process, only the workers.
#include "core/shard_exec.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "core/worker_protocol.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
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
    config.agents = 24;
    config.days = 1;
    config.seed = 99;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

/// Shards World() into `shards` under a fresh pid-unique directory.
std::string MakeShardDir(const std::string& name, std::size_t shards) {
  const fs::path dir = fs::temp_directory_path() /
                       (name + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  model::ShardedDataset::Partition(World(), shards).SaveShards(dir.string());
  return dir.string();
}

/// A grid the multi-process path accepts: single-stage per-trace
/// mechanisms, foldable evaluators. Canonical stage names (the fault
/// keys) are "gaussian[sigma=100m]", "geo_ind[eps=0.01]",
/// "cloaking[cell=250m]".
core::ScenarioSpec FoldableSpec() {
  core::ScenarioSpec spec;
  spec.mechanisms = {"gaussian", "geo_ind[eps=0.01]", "cloaking"};
  spec.evaluators = {"trajectory_stats", "range_queries[n=32]"};
  spec.seeds = {5, 9};
  return spec;
}

/// Sets MOBIPRIV_FAULTS for the scope (arms points in every worker the
/// supervisor spawns while it lives), restoring the previous value.
class ScopedWorkerFaults {
 public:
  explicit ScopedWorkerFaults(const std::string& spec) {
    const char* old = std::getenv("MOBIPRIV_FAULTS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv("MOBIPRIV_FAULTS", spec.c_str(), 1);
  }
  ~ScopedWorkerFaults() {
    if (had_) {
      ::setenv("MOBIPRIV_FAULTS", saved_.c_str(), 1);
    } else {
      ::unsetenv("MOBIPRIV_FAULTS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

/// Skips the test when the worker binary is not discoverable (platforms
/// without /proc/self/exe or builds without the target).
#define REQUIRE_WORKER_BINARY()                                        \
  do {                                                                 \
    if (core::DefaultWorkerBinary().empty()) {                         \
      GTEST_SKIP() << "mobipriv_worker binary not found next to the "  \
                      "test executable";                               \
    }                                                                  \
  } while (0)

class ShardExec : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

TEST_F(ShardExec, PartitionShardsIsContiguousAndBalanced) {
  // 10 shards over 3 workers: sizes differ by at most one, earlier
  // subsets take the remainder, indices stay contiguous ascending.
  const auto parts = core::PartitionShards(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  std::size_t next = 0;
  for (const auto& part : parts) {
    for (const std::size_t s : part) EXPECT_EQ(s, next++);
  }
  EXPECT_EQ(next, 10u);
  // More workers than shards: one subset per shard, never an empty one.
  EXPECT_EQ(core::PartitionShards(2, 8).size(), 2u);
  // workers = 0 clamps to 1.
  EXPECT_EQ(core::PartitionShards(5, 0).size(), 1u);
}

TEST_F(ShardExec, MergedReportByteIdenticalAcrossWorkerCounts) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_identical", 4);

  core::ScenarioSpec ref_spec = FoldableSpec();
  ref_spec.source = core::DatasetSourceSpec::ShardDir(dir);
  core::ScenarioEngine ref_engine(std::move(ref_spec));
  const std::string reference = ref_engine.Run().ToCsv();
  EXPECT_EQ(ref_engine.stats().workers_spawned, 0u);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    spec.workers = workers;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_TRUE(report.AllOk()) << "workers=" << workers;
    EXPECT_EQ(report.ToCsv(), reference) << "workers=" << workers;
    EXPECT_EQ(engine.stats().streamed_shards, 4u) << "workers=" << workers;
    EXPECT_GE(engine.stats().workers_spawned, 1u) << "workers=" << workers;
    EXPECT_EQ(engine.stats().worker_failures, 0u) << "workers=" << workers;
  }
  fs::remove_all(dir);
}

TEST_F(ShardExec, DegradedReportsAgreeAcrossExecutors) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_degraded", 4);

  // An engine-side fault on a mechanism stage, then on an evaluator,
  // must degrade the same rows with the same text whichever executor
  // runs the grid: the whole-view DAG over the borrowed world, the
  // shard stream in-process, and the shard stream under workers.
  //
  // The third case fails a stage partway through its input:
  // test_fail_on_user (tests/support/test_mechanisms.cpp, also linked
  // into the test worker) throws on a user of the LAST shard, so
  // in-process the stage fails only after shards 0-2 have fed its row's
  // folds, while an armed evaluator fault has already failed the row's
  // range_queries cells. The DAG never runs a dependent of a failed
  // node, so every cell of that row must read "skipped".
  const auto plan = core::ProbeShardStream(dir);
  ASSERT_TRUE(plan.has_value());
  ASSERT_FALSE(plan->origin[3].empty());
  const std::string failing =
      "test_fail_on_user[user=" +
      std::to_string(World().traces()[plan->origin[3].front()].user()) +
      "]";

  struct Placement {
    core::DatasetSourceSpec source;
    std::size_t workers;
    std::size_t streamed_shards;
  };
  const std::vector<Placement> placements = {
      {core::DatasetSourceSpec::Borrowed(World()), 0, 0},
      {core::DatasetSourceSpec::ShardDir(dir), 0, 4},
      {core::DatasetSourceSpec::ShardDir(dir), 2, 4},
  };
  struct Case {
    std::string_view point;
    std::string key;
    std::string extra_mechanism;  ///< appended to the grid when non-empty
  };
  const std::vector<Case> cases = {
      {fault::points::kEngineMechanismRun, "cloaking*", ""},
      {fault::points::kEngineEvaluatorRun, "range_queries*", ""},
      {fault::points::kEngineEvaluatorRun, "range_queries*", failing},
  };
  for (const Case& c : cases) {
    std::string reference;
    for (const Placement& placement : placements) {
      fault::Config config;
      config.mode = fault::Mode::kFailTimes;
      config.times = 1000;
      config.key_filter = c.key;
      fault::Arm(c.point, config);
      core::ScenarioSpec spec = FoldableSpec();
      if (!c.extra_mechanism.empty()) {
        spec.mechanisms.push_back(c.extra_mechanism);
      }
      spec.source = placement.source;
      spec.workers = placement.workers;
      spec.worker_binary = MOBIPRIV_TEST_WORKER;
      core::ScenarioEngine engine(std::move(spec));
      const std::string csv = engine.Run().ToCsv();
      fault::DisarmAll();
      const std::string label =
          std::string(c.point) + " " + c.extra_mechanism +
          " workers=" + std::to_string(placement.workers);
      EXPECT_EQ(engine.stats().streamed_shards, placement.streamed_shards)
          << label;
      EXPECT_NE(csv.find("injected fault"), std::string::npos) << label;
      if (!c.extra_mechanism.empty()) {
        EXPECT_NE(csv.find("dependency failed: test_fail_on_user: user"),
                  std::string::npos)
            << label << "\n" << csv;
      }
      if (reference.empty()) {
        reference = csv;
      } else {
        EXPECT_EQ(csv, reference) << label;
      }
    }
  }
  fs::remove_all(dir);
}

TEST_F(ShardExec, WorkerCrashRecoversByRestart) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_crash", 4);

  core::ScenarioSpec ref_spec = FoldableSpec();
  ref_spec.source = core::DatasetSourceSpec::ShardDir(dir);
  core::ScenarioEngine ref_engine(std::move(ref_spec));
  const std::string reference = ref_engine.Run().ToCsv();

  // SIGKILL every worker on its first attempt (#0) at the gaussian
  // stage; the retry (#1) passes. The run must recover to the exact
  // in-process report — crash history is invisible in the output.
  ScopedWorkerFaults faults(
      "worker.apply=kill:9@1,key:gaussian[sigma=100m]#0");
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.workers = 2;
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_TRUE(report.AllOk());
  EXPECT_EQ(report.ToCsv(), reference);
  EXPECT_GE(engine.stats().worker_restarts, 1u);
  EXPECT_EQ(engine.stats().worker_failures, 0u);
  fs::remove_all(dir);
}

TEST_F(ShardExec, RetryExhaustionDegradesOnlyTheKilledStage) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_exhaust", 4);

  // Kill EVERY attempt of every gaussian request: retries exhaust and
  // both gaussian stage nodes (seeds 5 and 9) degrade to failed rows
  // with machine-independent text; their evaluator cells are skipped;
  // the other mechanisms complete normally — byte-identically at any
  // thread count.
  ScopedWorkerFaults faults("worker.apply=kill:9@1,key:gaussian*");
  std::string first_csv;
  for (const std::size_t threads : {1u, 4u}) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    spec.workers = 2;
    spec.threads = threads;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_FALSE(report.AllOk());
    const std::string csv = report.ToCsv();
    EXPECT_NE(
        csv.find("worker failed after 3 attempts: killed by signal 9"),
        std::string::npos);
    EXPECT_NE(csv.find("dependency failed: worker failed after 3 attempts"),
              std::string::npos);
    // Degradation is surgical: the non-gaussian mechanisms still have
    // only ok rows.
    for (const auto& row : report.rows()) {
      if (row.mechanism.find("gaussian") == std::string::npos) {
        EXPECT_EQ(row.error, "") << row.mechanism;
      }
    }
    EXPECT_GE(engine.stats().worker_failures, 1u) << "threads=" << threads;
    if (first_csv.empty()) {
      first_csv = csv;
    } else {
      EXPECT_EQ(csv, first_csv) << "degraded report not thread-invariant";
    }
  }
  fs::remove_all(dir);
}

TEST_F(ShardExec, TornResultIsRetriedAndRecovered) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_torn", 4);

  core::ScenarioSpec ref_spec = FoldableSpec();
  ref_spec.source = core::DatasetSourceSpec::ShardDir(dir);
  core::ScenarioEngine ref_engine(std::move(ref_spec));
  const std::string reference = ref_engine.Run().ToCsv();

  // Supervisor-side: the result-validation point is in THIS process, so
  // programmatic arming works. Fail one validation of a gaussian result
  // -> "result missing or torn" -> the request retries and recovers.
  fault::Config config;
  config.mode = fault::Mode::kFailTimes;
  config.times = 1;
  config.key_filter = "gaussian*";
  fault::Arm(fault::points::kSupervisorResultValidate, config);

  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.workers = 2;
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(fault::TripCount(fault::points::kSupervisorResultValidate), 1u);
  EXPECT_TRUE(report.AllOk());
  EXPECT_EQ(report.ToCsv(), reference);
  EXPECT_GE(engine.stats().worker_restarts, 1u);
  EXPECT_EQ(engine.stats().worker_failures, 0u);
  fs::remove_all(dir);
}

TEST_F(ShardExec, DeadlineExpiryDegradesWithWatchdogText) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_deadline", 2);

  // Workers sleep 1200 ms inside every cloaking apply; the 250 ms
  // request deadline preempts them. Retries hit the same sleep, so the
  // stage exhausts and degrades with the watchdog's error text (the
  // same wording the in-process watchdog uses).
  ScopedWorkerFaults faults("worker.apply=delay:1200,key:cloaking*");
  core::ScenarioSpec spec;
  spec.mechanisms = {"gaussian", "cloaking"};
  spec.evaluators = {"trajectory_stats"};
  spec.seeds = {5};
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.workers = 2;
  spec.node_timeout_ms = 250.0;
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_FALSE(report.AllOk());
  const std::string csv = report.ToCsv();
  EXPECT_NE(csv.find("node exceeded node_timeout (250 ms watchdog)"),
            std::string::npos);
  for (const auto& row : report.rows()) {
    if (row.mechanism.find("gaussian") != std::string::npos) {
      EXPECT_EQ(row.error, "");
    }
  }
  EXPECT_GE(engine.stats().worker_failures, 1u);
  fs::remove_all(dir);
}

TEST_F(ShardExec, WorkerReportedIoErrorIsPermanentAndDeterministic) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_ioerr", 4);

  // A worker-REPORTED failure (the result write throws IoError inside
  // the worker) is permanent — no retry — and its error text is
  // forwarded verbatim into the report, identically at any worker
  // count: every worker process trips its `once` budget on the same
  // first matching request.
  ScopedWorkerFaults faults("worker.result.write=once,key:cloaking*");
  std::string first_csv;
  for (const std::size_t workers : {1u, 2u}) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    spec.workers = workers;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_FALSE(report.AllOk());
    const std::string csv = report.ToCsv();
    EXPECT_NE(
        csv.find("injected fault (worker.result.write): "
                 "cloaking[cell=250m]#0"),
        std::string::npos);
    EXPECT_EQ(engine.stats().worker_restarts, 0u) << "workers=" << workers;
    EXPECT_GE(engine.stats().worker_failures, 1u) << "workers=" << workers;
    if (first_csv.empty()) {
      first_csv = csv;
    } else {
      EXPECT_EQ(csv, first_csv) << "degraded report not worker-invariant";
    }
  }
  fs::remove_all(dir);
}

TEST_F(ShardExec, OriginlessLayoutStreamsLikeItsBoundView) {
  // Independently written shards stitched by MergeShardManifests carry no
  // origin table; their canonical order is shard-major. The engine must
  // stream such a directory and report exactly what the whole-view DAG
  // reports over the same view materialized and borrowed — in-process
  // and, when the worker binary exists, under two workers. (identity is
  // not a per-trace mechanism, so gaussian stands in next to geo_ind.)
  const fs::path dir =
      fs::temp_directory_path() /
      ("mobipriv_exec_originless-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  constexpr std::size_t kShards = 3;
  const auto partition = model::ShardedDataset::Partition(World(), kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    model::WriteColumnar(model::EventStore::FromDataset(partition.shard(s)),
                         model::ShardDataPath(dir.string(), s));
  }
  model::MergeShardManifests(dir.string(), kShards);
  ASSERT_FALSE(model::ReadShardManifest(dir.string()).has_origin());

  const auto grid = [](core::DatasetSourceSpec source) {
    core::ScenarioSpec spec;
    spec.source = std::move(source);
    spec.mechanisms = {"gaussian", "geo_ind[eps=0.01]"};
    spec.evaluators = {"trajectory_stats", "range_queries"};
    spec.seeds = {5};
    return spec;
  };
  const model::Dataset bound =
      core::BoundSource::Bind(core::DatasetSourceSpec::ShardDir(dir.string()))
          .view()
          .Materialize();
  core::ScenarioEngine whole(grid(core::DatasetSourceSpec::Borrowed(bound)));
  const std::string reference = whole.Run().ToCsv();
  ASSERT_EQ(whole.stats().streamed_shards, 0u);

  std::vector<std::size_t> worker_counts = {0};
  if (!core::DefaultWorkerBinary().empty()) worker_counts.push_back(2);
  for (const std::size_t workers : worker_counts) {
    core::ScenarioSpec spec =
        grid(core::DatasetSourceSpec::ShardDir(dir.string()));
    spec.workers = workers;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_EQ(engine.stats().streamed_shards, kShards)
        << "workers=" << workers;
    EXPECT_TRUE(report.AllOk()) << "workers=" << workers;
    EXPECT_EQ(report.ToCsv(), reference) << "workers=" << workers;
  }
  fs::remove_all(dir);
}

TEST_F(ShardExec, SupervisorDetectsHeartbeatLoss) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_heartbeat", 2);
  const auto plan = core::ProbeShardStream(dir);
  ASSERT_TRUE(plan.has_value());

  // Delay every apply by 1500 ms with a 250 ms heartbeat budget and one
  // attempt: the supervisor must detect the silent worker, kill it and
  // degrade the stage with a liveness error.
  ScopedWorkerFaults faults("worker.apply=delay:1500");
  core::ShardExecOptions options;
  options.worker_binary = core::DefaultWorkerBinary();
  options.workers = 1;
  options.heartbeat_timeout_ms = 250.0;
  options.max_attempts = 1;
  const std::string out_dir = core::MakeScratchDir();
  core::ShardExecStats stats;
  const std::vector<core::ShardStageOutcome> outcomes =
      core::RunShardStagesMultiProcess(
          *plan, {{"gaussian", "gaussian[sigma=100m]", "stage-0", 5}},
          out_dir, options, &stats);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("heartbeat lost"), std::string::npos)
      << outcomes[0].error;
  EXPECT_EQ(stats.worker_failures, 1u);
  fs::remove_all(out_dir);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mobipriv
