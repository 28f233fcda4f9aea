// Failure-domain tests: the fault matrix (every registered injection
// point driven in fail-once mode — no crash, no torn file), atomic-commit
// torn-write protection, unreadable shard files, cache-read retry, and the
// engine's graceful degradation (deterministic error rows at any thread
// count, watchdog containment).
#include "util/fault.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "core/shard_exec.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;
namespace fault = util::fault;

/// Small shared world (built once; tests treat it as read-only).
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

/// Two-agent world for the timing-sensitive watchdog test: its real nodes
/// must stay far under a 150 ms limit even in a Debug+ASan build. There,
/// on a 4-vCPU x86-64 VM, a spatial_distortion node took 100-130 ms over
/// World() and at most ~35 ms over this world.
const model::Dataset& TinyWorld() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 2;
    config.days = 1;
    config.seed = 99;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

/// Fresh scratch directory per test (removed on destruction).
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("mobipriv_fault_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

/// RAII teardown: no test leaks an armed point into the next.
struct DisarmGuard {
  ~DisarmGuard() { fault::DisarmAll(); }
};

fault::Config FailTimes(std::uint64_t times, std::string key_filter = {}) {
  fault::Config config;
  config.mode = fault::Mode::kFailTimes;
  config.times = times;
  config.key_filter = std::move(key_filter);
  return config;
}

fault::Config ShortIo(std::size_t bytes) {
  fault::Config config;
  config.mode = fault::Mode::kShortIo;
  config.bytes = bytes;
  return config;
}

fault::Config Delay(std::uint64_t delay_ms, std::string key_filter = {}) {
  fault::Config config;
  config.mode = fault::Mode::kDelay;
  config.delay_ms = delay_ms;
  config.key_filter = std::move(key_filter);
  return config;
}

core::ScenarioSpec EngineSpec(const std::string& cache_dir = {}) {
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  spec.mechanisms = {"identity", "cloaking", "geo_ind[eps=0.01]"};
  spec.evaluators = {"coverage", "spatial_distortion"};
  spec.seeds = {7};
  spec.threads = 1;
  spec.mechanism_cache_dir = cache_dir;
  return spec;
}

// ---- The fault matrix -------------------------------------------------------

/// Drives every persistence and engine path once, swallowing failures per
/// stage (a failing stage must not stop later stages from being driven).
void DriveAllSites(const fs::path& dir) {
  const auto guarded = [](auto&& stage) {
    try {
      stage();
    } catch (const std::exception&) {
      // Expected: the armed point failed this stage. Containment is the
      // assertion (no crash, no torn file), not success.
    }
  };

  const model::EventStore store = model::EventStore::FromDataset(World());
  const fs::path mpc = dir / "x.mpc";
  guarded([&] { model::WriteColumnar(store, mpc.string()); });
  guarded([&] { (void)model::ReadColumnar(mpc.string()); });
  guarded([&] { (void)model::MapColumnar(mpc.string()); });

  const fs::path shards = dir / "shards";
  guarded([&] {
    model::ShardedDataset::Partition(World(), 2).SaveShards(shards.string());
  });
  guarded([&] {
    (void)core::BoundSource::Bind(
        core::DatasetSourceSpec::ShardDir(shards.string()));
  });

  const fs::path csv = dir / "x.csv";
  guarded([&] { model::SaveDataset(World(), csv.string()); });
  guarded([&] { (void)model::ReadCsvFile(csv.string()); });

  // Cold engine run spills the cache, warm run reads it back; both runs
  // degrade gracefully whatever node the armed point kills.
  const std::string cache = (dir / "cache").string();
  guarded([&] { (void)core::RunScenario(EngineSpec(cache)); });
  guarded([&] { (void)core::RunScenario(EngineSpec(cache)); });

  // Multi-process path: a supervised-worker run over the shard dir (the
  // engine falls back in-process when the worker binary is absent). This
  // is what reaches the supervisor-side result validation point; the
  // worker-process-side points evaluate in the CHILD processes and are
  // driven for real by test_shard_exec.cpp.
  guarded([&] {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::ShardDir(shards.string());
    spec.mechanisms = {"gaussian"};
    spec.evaluators = {"trajectory_stats"};
    spec.seeds = {7};
    spec.threads = 1;
    spec.workers = 1;
    (void)core::RunScenario(std::move(spec));
  });
}

/// Every published `.mpc` in `dir` must read back clean — the atomic
/// commit protocol's promise: a final path is never torn, whatever fault
/// fired during the run.
void ExpectNoTornColumnarFiles(const fs::path& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    EXPECT_NE(p.extension(), ".tmp") << "stray temp file: " << p;
    if (p.extension() != ".mpc") continue;
    EXPECT_NO_THROW((void)model::ReadColumnar(p.string()))
        << "torn columnar file survived: " << p;
  }
}

TEST(FaultMatrix, EveryPointFailOnceIsContained) {
  DisarmGuard guard;
  for (const std::string_view point : fault::AllPoints()) {
    SCOPED_TRACE(std::string(point));
    ScratchDir scratch("matrix_" + std::string(point));
    fault::DisarmAll();
    fault::Arm(point, FailTimes(1));
    DriveAllSites(scratch.path);
    // The worker.* points evaluate inside fork/exec'd worker PROCESSES
    // and can only be armed there via the MOBIPRIV_FAULTS environment —
    // programmatic arming here never reaches them (test_shard_exec.cpp
    // drives them for real). The supervisor-side validation point needs
    // the worker binary next to this test executable to be reached.
    const bool worker_process_side =
        point == fault::points::kWorkerApply ||
        point == fault::points::kWorkerResultWrite;
    const bool needs_worker_binary =
        point == fault::points::kSupervisorResultValidate &&
        core::DefaultWorkerBinary().empty();
    if (!worker_process_side && !needs_worker_binary) {
      EXPECT_GE(fault::TripCount(point), 1u)
          << "injection point was never reached by the drive";
    }
    fault::DisarmAll();
    ExpectNoTornColumnarFiles(scratch.path);
  }
}

TEST(FaultMatrix, ShortIoTearsTempNeverFinal) {
  DisarmGuard guard;
  ScratchDir scratch("short");
  const model::EventStore store = model::EventStore::FromDataset(World());
  const fs::path mpc = scratch.path / "x.mpc";

  // Publish a healthy version first, then tear an overwrite attempt.
  model::WriteColumnar(store, mpc.string());
  const auto healthy_size = fs::file_size(mpc);

  fault::Arm(fault::points::kColumnarWriteShort, ShortIo(64));
  EXPECT_THROW(model::WriteColumnar(store, mpc.string()), model::IoError);
  fault::DisarmAll();

  // Old content intact, byte for byte; the torn prefix never took the name.
  EXPECT_EQ(fs::file_size(mpc), healthy_size);
  EXPECT_NO_THROW((void)model::ReadColumnar(mpc.string()));
  ExpectNoTornColumnarFiles(scratch.path);
}

TEST(FaultMatrix, CommitFaultLeavesNoTempBehind) {
  DisarmGuard guard;
  ScratchDir scratch("commit");
  const model::EventStore store = model::EventStore::FromDataset(World());
  const fs::path mpc = scratch.path / "x.mpc";

  fault::Arm(fault::points::kColumnarWriteCommit, FailTimes(1));
  EXPECT_THROW(model::WriteColumnar(store, mpc.string()), model::IoError);
  fault::DisarmAll();

  EXPECT_FALSE(fs::exists(mpc));
  EXPECT_TRUE(fs::is_empty(scratch.path)) << "temp file leaked";

  // The budget is spent: the retry succeeds and publishes clean.
  model::WriteColumnar(store, mpc.string());
  EXPECT_NO_THROW((void)model::ReadColumnar(mpc.string()));
}

TEST(FaultMatrix, TruncatedMapOpenThrowsCleanly) {
  // A physically truncated file must be a clean IoError from MapColumnar
  // — never a SIGBUS later when section pointers are dereferenced.
  ScratchDir scratch("truncate");
  const fs::path mpc = scratch.path / "x.mpc";
  model::WriteColumnar(model::EventStore::FromDataset(World()),
                       mpc.string());
  fs::resize_file(mpc, fs::file_size(mpc) / 2);
  EXPECT_THROW((void)model::MapColumnar(mpc.string()), model::IoError);
  EXPECT_THROW((void)model::ReadColumnar(mpc.string()), model::IoError);
}

// ---- Env-spec grammar -------------------------------------------------------

TEST(FaultSpec, ArmFromSpecGrammar) {
  DisarmGuard guard;
  EXPECT_EQ(fault::ArmFromSpec(
                "columnar.write.open=once;cache.read.load=times:3;"
                "csv.read.short=short:16;engine.mechanism.run=delay:1;"
                "manifest.read.open=p:0.5@7"),
            5u);
  // once => fail exactly the first evaluation.
  EXPECT_TRUE(fault::Evaluate(fault::points::kColumnarWriteOpen).fail);
  EXPECT_FALSE(fault::Evaluate(fault::points::kColumnarWriteOpen).fail);
  // short:16 => fail with a 16-byte I/O cap.
  const fault::Decision d =
      fault::Evaluate(fault::points::kCsvReadShort);
  EXPECT_TRUE(d.fail);
  EXPECT_EQ(d.io_cap, 16u);
  // delay never fails.
  EXPECT_FALSE(fault::Evaluate(fault::points::kEngineMechanismRun).fail);
  fault::DisarmAll();

  EXPECT_THROW(fault::ArmFromSpec("nonsense"), std::invalid_argument);
  EXPECT_THROW(fault::ArmFromSpec("x=unknownmode"), std::invalid_argument);
  EXPECT_THROW(fault::ArmFromSpec("x=times:"), std::invalid_argument);
  EXPECT_THROW(fault::ArmFromSpec("x=p:1.5"), std::invalid_argument);
  fault::DisarmAll();
}

TEST(FaultSpec, DisabledPathIsInert) {
  ASSERT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::Evaluate(fault::points::kColumnarWriteOpen).fail);
  EXPECT_EQ(fault::TripCount(fault::points::kColumnarWriteOpen), 0u);
}

// ---- Unreadable shard files -------------------------------------------------

TEST(ShardOpen, UnreadableShardFailsTheRunNamingTheFile) {
  DisarmGuard guard;
  ScratchDir scratch("shard_open");
  model::ShardedDataset::Partition(World(), 3)
      .SaveShards(scratch.path.string());
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::ShardDir(scratch.path.string());
  spec.mechanisms = {"identity"};
  spec.evaluators = {"trajectory_stats"};

  // The engine's bind has no partial mode: one unreadable shard fails the
  // run with an IoError that names the shard file.
  const auto expect_named_failure = [&] {
    try {
      (void)core::ScenarioEngine(spec).Run();
      ADD_FAILURE() << "expected model::IoError";
    } catch (const model::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("shard-00001.mpc"),
                std::string::npos)
          << e.what();
    }
  };

  fault::Arm(fault::points::kShardOpenRead,
             FailTimes(1000, "shard-00001.mpc"));
  expect_named_failure();
  EXPECT_GE(fault::TripCount(fault::points::kShardOpenRead), 1u);
  fault::DisarmAll();
  EXPECT_TRUE(core::ScenarioEngine(spec).Run().AllOk());

  // A torn shard file fails the same way.
  {
    std::ofstream out(scratch.path / "shard-00001.mpc",
                      std::ios::binary | std::ios::trunc);
    out << "torn";
  }
  expect_named_failure();
}

// ---- Engine graceful degradation --------------------------------------------

TEST(Degradation, FailedMechanismDegradesDeterministically) {
  DisarmGuard guard;
  const std::string victim = "cloaking[cell=250m]";

  const auto run_degraded = [&](std::size_t threads) {
    fault::Arm(fault::points::kEngineMechanismRun, FailTimes(1000, victim));
    core::ScenarioSpec spec = EngineSpec();
    spec.threads = threads;
    core::ScenarioEngine engine(spec);
    const core::Report report = engine.Run();
    fault::DisarmAll();
    EXPECT_EQ(engine.stats().failed_nodes, 1u);
    EXPECT_EQ(engine.stats().skipped_nodes, 2u);  // its two evaluator nodes
    return report;
  };

  const core::Report serial = run_degraded(1);
  EXPECT_FALSE(serial.AllOk());

  // One failed mechanism row, its evaluator cells skipped, everything
  // else scored normally.
  std::size_t failed = 0, skipped = 0, ok = 0;
  for (const core::ReportRow& row : serial.rows()) {
    switch (row.status) {
      case core::RowStatus::kFailed:
        ++failed;
        EXPECT_EQ(row.mechanism, victim);
        EXPECT_EQ(row.evaluator, "");
        EXPECT_NE(row.error.find("injected fault"), std::string::npos);
        break;
      case core::RowStatus::kSkipped:
        ++skipped;
        EXPECT_EQ(row.mechanism, victim);
        EXPECT_NE(row.evaluator, "");
        EXPECT_NE(row.error.find("dependency failed"), std::string::npos);
        break;
      case core::RowStatus::kOk:
        ++ok;
        EXPECT_NE(row.mechanism, victim);
        break;
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(skipped, 2u);
  EXPECT_GT(ok, 0u);

  // The acceptance bar: byte-identical degraded reports at any thread
  // count, error rows included.
  const core::Report parallel = run_degraded(4);
  EXPECT_EQ(serial.ToCsv(), parallel.ToCsv());

  // Pivot never renders degraded cells.
  EXPECT_EQ(serial.Pivot("coverage").ToCsv().find(victim),
            std::string::npos);
}

TEST(Degradation, FailedTerminalHandsBackAnEmptyStore) {
  // A caller keeping the outputs (anonymize_csv's publish) must be able
  // to tell a failed row from a published one: its store comes back
  // empty and the report carries the row's mechanism error row.
  DisarmGuard guard;
  const std::string victim = "cloaking[cell=250m]";
  fault::Arm(fault::points::kEngineMechanismRun, FailTimes(1000, victim));
  core::ScenarioSpec spec = EngineSpec();
  spec.evaluators.clear();
  core::ScenarioEngine engine(spec);
  std::vector<model::EventStore> terminals;
  const core::Report report = engine.Run(&terminals);
  fault::DisarmAll();

  ASSERT_EQ(terminals.size(), 3u);  // identity, cloaking, geo_ind
  EXPECT_GT(terminals[0].EventCount(), 0u);
  EXPECT_EQ(terminals[1].TraceCount(), 0u);
  EXPECT_GT(terminals[2].EventCount(), 0u);
  ASSERT_EQ(report.rows().size(), 1u);
  EXPECT_EQ(report.rows()[0].mechanism, victim);
  EXPECT_EQ(report.rows()[0].evaluator, "");
  EXPECT_EQ(report.rows()[0].status, core::RowStatus::kFailed);
}

TEST(Degradation, FailedEvaluatorKeepsSiblingCells) {
  DisarmGuard guard;
  fault::Arm(fault::points::kEngineEvaluatorRun,
             FailTimes(1000, "coverage[cell=200m]"));
  core::ScenarioEngine engine(EngineSpec());
  const core::Report report = engine.Run();
  fault::DisarmAll();

  EXPECT_EQ(engine.stats().failed_nodes, 3u);  // one per mechanism node
  EXPECT_EQ(engine.stats().skipped_nodes, 0u);
  for (const core::ReportRow& row : report.rows()) {
    if (row.evaluator == "coverage[cell=200m]") {
      EXPECT_EQ(row.status, core::RowStatus::kFailed);
      EXPECT_EQ(row.metric, "");
    } else {
      EXPECT_EQ(row.status, core::RowStatus::kOk);
    }
  }
}

TEST(Degradation, ThrowingPreparedSideFailsEveryCellOfItsColumn) {
  // A prepared original side that throws is computed once per
  // (evaluator, seed) column, but every cell of the column reports it as
  // its own failure — "failed" with the thrown text, never "skipped" —
  // exactly as when each cell threw from its own Evaluate. A failed stage
  // still skips its row's cells, prepared or not.
  DisarmGuard guard;
  const auto run = [](const std::string& evaluator, std::size_t threads) {
    fault::Arm(fault::points::kEngineMechanismRun,
               FailTimes(1000, "cloaking*"));
    core::ScenarioSpec spec = EngineSpec();
    spec.evaluators = {"coverage", evaluator, "poi_attack"};
    spec.seeds = {1, 2};
    spec.threads = threads;
    core::ScenarioEngine engine(spec);
    const std::string csv = engine.Run().ToCsv();
    fault::DisarmAll();
    // 2 live rows x 2 seeds throwing cells + the failed stage (x2 seeds);
    // the failed rows' 2 x 3 cells are skipped.
    EXPECT_EQ(engine.stats().failed_nodes, 4u + 2u) << evaluator;
    EXPECT_EQ(engine.stats().skipped_nodes, 6u) << evaluator;
    return std::make_pair(csv, engine.stats().prepare_nodes);
  };
  const auto [reference, no_split] =
      run("test_original_throws_per_cell", 1);
  EXPECT_EQ(no_split, 2u);  // poi_attack x 2 seeds
  EXPECT_NE(reference.find(",failed,test_original_throws: original side"),
            std::string::npos)
      << reference;
  for (const std::size_t threads : {1u, 4u}) {
    const auto [csv, prepare_nodes] = run("test_original_throws", threads);
    EXPECT_EQ(prepare_nodes, 4u);
    EXPECT_EQ(csv, reference) << "threads=" << threads;
  }
}

TEST(Degradation, EvaluatorFaultTripsPerPreparedCell) {
  // engine.evaluator.run still trips once per cell of a prepared
  // evaluator, not once per prepared column.
  DisarmGuard guard;
  std::string reference;
  for (const std::size_t threads : {1u, 4u}) {
    fault::Arm(fault::points::kEngineEvaluatorRun,
               FailTimes(1000, "poi_attack*"));
    core::ScenarioSpec spec = EngineSpec();
    spec.evaluators = {"coverage", "poi_attack"};
    spec.seeds = {1, 2};
    spec.threads = threads;
    core::ScenarioEngine engine(spec);
    const std::string csv = engine.Run().ToCsv();
    EXPECT_EQ(fault::TripCount(fault::points::kEngineEvaluatorRun), 6u);
    fault::DisarmAll();
    EXPECT_EQ(engine.stats().prepare_nodes, 2u);
    EXPECT_EQ(engine.stats().failed_nodes, 6u);
    EXPECT_EQ(engine.stats().skipped_nodes, 0u);
    if (reference.empty()) reference = csv;
    EXPECT_EQ(csv, reference) << "threads=" << threads;
  }
}

TEST(Degradation, WatchdogContainsSlowNodes) {
  DisarmGuard guard;
  const auto run_with_watchdog = [&](std::size_t threads) {
    // The margin matters: the delayed node overshoots the limit 3x, real
    // nodes on TinyWorld stay far under it — the verdict is deterministic
    // even on a loaded machine.
    fault::Arm(fault::points::kEngineMechanismRun, Delay(450, "identity"));
    core::ScenarioSpec spec = EngineSpec();
    spec.source = core::DatasetSourceSpec::Borrowed(TinyWorld());
    spec.threads = threads;
    spec.node_timeout_ms = 150.0;
    const core::Report report = core::RunScenario(spec);
    fault::DisarmAll();
    return report;
  };

  const core::Report serial = run_with_watchdog(1);
  bool saw_timeout = false;
  for (const core::ReportRow& row : serial.rows()) {
    if (row.mechanism == "identity" &&
        row.status == core::RowStatus::kFailed) {
      saw_timeout = true;
      // The verdict carries the configured limit only — no measured
      // times, so the row is machine-independent.
      EXPECT_EQ(row.error, "node exceeded node_timeout (150 ms watchdog)");
    }
    if (row.mechanism != "identity") {
      EXPECT_EQ(row.status, core::RowStatus::kOk);
    }
  }
  EXPECT_TRUE(saw_timeout);
  EXPECT_EQ(serial.ToCsv(), run_with_watchdog(4).ToCsv());
}

TEST(Degradation, WatchdogFailsEveryCellOfASlowPreparedColumn) {
  // A prepare node over the limit hands the watchdog verdict to every
  // cell of its column: "failed" with the verdict, never "skipped".
  const auto run = [](std::size_t threads) {
    core::ScenarioSpec spec = EngineSpec();
    spec.source = core::DatasetSourceSpec::Borrowed(TinyWorld());
    spec.evaluators = {"coverage", "test_slow_prepare[ms=450]"};
    spec.threads = threads;
    spec.node_timeout_ms = 150.0;
    core::ScenarioEngine engine(spec);
    const core::Report report = engine.Run();
    EXPECT_EQ(engine.stats().failed_nodes, 3u);
    EXPECT_EQ(engine.stats().skipped_nodes, 0u);
    for (const core::ReportRow& row : report.rows()) {
      if (row.evaluator == "test_slow_prepare[ms=450]") {
        EXPECT_EQ(row.status, core::RowStatus::kFailed);
        EXPECT_EQ(row.error, "node exceeded node_timeout (150 ms watchdog)");
      } else {
        EXPECT_EQ(row.status, core::RowStatus::kOk) << row.evaluator;
      }
    }
    return report.ToCsv();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Degradation, CacheReadRetriesAbsorbTransients) {
  DisarmGuard guard;
  ScratchDir scratch("retry");
  const std::string cache = scratch.path.string();

  // Warm the cache, pin the healthy report.
  const core::Report baseline = core::RunScenario(EngineSpec(cache));
  ASSERT_TRUE(baseline.AllOk());

  // Two transient failures: absorbed by the retry budget — every node
  // still HITS the cache and the report is unchanged.
  fault::Arm(fault::points::kCacheReadLoad, FailTimes(2));
  core::ScenarioEngine transient(EngineSpec(cache));
  const core::Report absorbed = transient.Run();
  fault::DisarmAll();
  EXPECT_TRUE(absorbed.AllOk());
  EXPECT_EQ(absorbed.ToCsv(), baseline.ToCsv());
  EXPECT_EQ(transient.stats().cache_read_retries, 2u);
  EXPECT_EQ(transient.stats().cache_hits, 3u);
  EXPECT_EQ(transient.stats().cache_misses, 0u);

  // Persistent failure: the budget runs out, the cache degrades to a
  // miss and the engine recomputes — never a run failure.
  fault::Arm(fault::points::kCacheReadLoad, FailTimes(1000000));
  core::ScenarioEngine persistent(EngineSpec(cache));
  const core::Report recomputed = persistent.Run();
  fault::DisarmAll();
  EXPECT_TRUE(recomputed.AllOk());
  EXPECT_EQ(recomputed.ToCsv(), baseline.ToCsv());
  EXPECT_EQ(persistent.stats().cache_hits, 0u);
  EXPECT_EQ(persistent.stats().cache_misses, 3u);
}

TEST(Degradation, HealthyRunReportsAllOk) {
  const core::Report report = core::RunScenario(EngineSpec());
  EXPECT_TRUE(report.AllOk());
  for (const core::ReportRow& row : report.rows()) {
    EXPECT_EQ(row.status, core::RowStatus::kOk);
    EXPECT_TRUE(row.error.empty());
  }
  // The long-form table is self-describing about health.
  const std::string csv = report.ToCsv();
  EXPECT_NE(csv.find("status,error"), std::string::npos);
  EXPECT_NE(csv.find(",ok,"), std::string::npos);
}

}  // namespace
}  // namespace mobipriv
