// The scenario engine: compiles a declarative ScenarioSpec into a task
// DAG and executes it on the shared thread pool.
//
//   bind source ──► mechanism(m, seed) ──► evaluate(m, seed, e) ──► Report
//                      (memoized)                (fan-out)
//
// Memoization rule: one mechanism node exists per distinct
// (canonical mechanism Name(), seed) pair — spec entries that
// canonicalize to the same mechanism share it, and every evaluator of the
// grid consumes that single node's output as a zero-copy DatasetView. A
// grid of M mechanisms x E evaluators therefore applies each mechanism
// once, not E times — the reason an engine grid is measurably faster than
// the equivalent standalone bench runs (bench_throughput's
// BM_EngineGrid / BM_EngineGridIndependent pair).
//
// An evaluator whose original side depends only on the source, the
// frame and the seed (core::PreparedEvaluator) gets one prepare node per
// (evaluator, seed) column; its evaluation nodes depend on it and on
// their row's terminal, and score against its read-only result. The shard
// stream does the same with one OriginalFold per column.
//
// Chain specs ("a[...]|b[...]|c") compile into one node PER STAGE, keyed
// by (prefix canonical name, seed) where the prefix name is the stage
// names [0..k] joined with '|'. Grid rows sharing a stage prefix share
// those nodes — each shared stage runs once per run (stats().stage_reuses
// counts the savings) — and each stage node draws from a stream derived
// from its PREFIX name, so a row's bytes depend only on its own stages,
// never on what else is in the grid. The `.mpc` cache keys stage outputs
// by the same prefix names ("prefix-fingerprints"), so warm runs reuse
// intermediate artifacts too. A chain exists only as this plan: the
// registry builds single stages (mech::CreateMechanism rejects a chain
// text) and names a chain with mech::ChainName (docs/FORMAT.md).
//
// Mechanism nodes run the SoA-native path (Mechanism::ApplyToStore): each
// node's output is a columnar EventStore — no per-trace std::vector<Event>,
// no name re-interning — whose View() fans out to the node's evaluators.
// With ScenarioSpec::mechanism_cache_dir set, node outputs are also
// spilled to `.mpc` files content-addressed by (canonical name, dataset
// fingerprint, seed) and reused across runs; stale or corrupt entries are
// recomputed, never reused (docs/FORMAT.md, "Cached mechanism outputs"). Instances always run
// from the ORIGINAL spec text (names print numbers at fixed precision and
// are not re-parsed), with one caveat: two spec entries whose configs are
// so close that their canonical names print identically (e.g. geo_ind
// epsilons differing below 1e-4) are treated as the same grid cell — the
// first entry's text wins.
//
// A shard-dir grid of single-stage per-trace rows and foldable evaluators
// may instead stream shard by shard (EngineStats::streamed_shards). Every
// (stage, shard) there is published by one body, core::ApplyStageToShard
// (core/shard_stage.h), run in-process or in mobipriv_worker processes
// (ScenarioSpec::workers); placement decides only where it runs.
//
// Determinism contract (test-enforced): same spec + seeds => byte-identical
// Report at any worker count (spec.threads, MOBIPRIV_THREADS) and any
// shard count of a shard-dir source. Each mechanism node draws from its
// own stream, derived from (cell seed, FNV of the canonical name), so
// grid composition never perturbs results.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"
#include "model/event_store.h"

namespace mobipriv::core {

/// Outcome of the node(s) behind one report row. The engine degrades
/// gracefully: a throwing node never kills the run — its row(s) carry the
/// error, dependents are marked skipped, and every surviving grid cell
/// still reports (byte-identically at any thread count, error rows
/// included).
enum class RowStatus {
  kOk,       ///< node ran, value is valid
  kFailed,   ///< this node threw (or tripped the watchdog); see `error`
  kSkipped,  ///< an upstream dependency failed; see `error` for the cause
};

/// Canonical rendering of a RowStatus ("ok" / "failed" / "skipped").
[[nodiscard]] std::string_view ToString(RowStatus status) noexcept;

/// One scored number of the grid: (mechanism, seed, evaluator, metric).
/// Non-ok rows have an empty metric and no meaningful value; `error`
/// carries the captured exception text instead.
struct ReportRow {
  std::string mechanism;  ///< canonical mechanism Name()
  std::uint64_t seed = 0;
  std::string evaluator;  ///< canonical evaluator Name()
  std::string metric;
  double value = 0.0;
  RowStatus status = RowStatus::kOk;
  std::string error;  ///< empty for ok rows
};

/// The unified result of one engine run. Row order is canonical
/// (mechanism in first-appearance spec order, then seed, then evaluator,
/// then metric), so rendering is reproducible byte for byte.
class Report {
 public:
  [[nodiscard]] const std::vector<ReportRow>& rows() const noexcept {
    return rows_;
  }

  /// Long-form table: mechanism, seed, evaluator, metric, value, status,
  /// error. Status/error make degraded runs self-describing; on a fully
  /// healthy run every status cell is "ok" and every error cell empty.
  [[nodiscard]] Table ToTable() const;
  /// Long-form CSV (RFC-4180 quoted; spec strings contain commas).
  [[nodiscard]] std::string ToCsv() const;

  /// Wide table for one evaluator: a row per (mechanism, seed), a column
  /// per metric — the shape the comparison benches print. Only ok rows
  /// pivot (failed/skipped cells stay blank).
  [[nodiscard]] Table Pivot(std::string_view evaluator) const;

  /// True when every row is ok (no failed or skipped nodes).
  [[nodiscard]] bool AllOk() const noexcept;

  /// Values are rendered with this precision in all three renderings.
  static constexpr int kValuePrecision = 6;

 private:
  friend class ScenarioEngine;
  std::vector<ReportRow> rows_;
};

/// Execution accounting of one run (the memoization evidence).
struct EngineStats {
  std::size_t grid_cells = 0;       ///< spec mechanisms x seeds x evaluators
  std::size_t mechanism_nodes = 0;  ///< memoized (stage prefix, seed) nodes
  std::size_t evaluator_nodes = 0;  ///< evaluation nodes run
  /// Original sides built: one per (PreparedEvaluator, seed) column, a
  /// prepare node of the DAG or an OriginalFold of the shard stream,
  /// however many rows share it.
  std::size_t prepare_nodes = 0;
  /// Stage references served by an already-compiled node instead of a new
  /// one: total (row, seed, stage) references minus mechanism_nodes. 0
  /// when no grid rows share a chain prefix (or duplicate a mechanism);
  /// the memoization evidence for chain compilation.
  std::size_t stage_reuses = 0;
  /// Mechanism outputs reused from / recomputed into the `.mpc` output
  /// cache (both 0 when ScenarioSpec::mechanism_cache_dir is empty).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Entries the LRU byte cap evicted during this run (0 when
  /// mechanism_cache_max_bytes is 0).
  std::size_t cache_evictions = 0;
  /// Transient cache-read failures absorbed by the bounded
  /// retry-with-backoff (docs/ROBUSTNESS.md); > 0 never affects results.
  std::size_t cache_read_retries = 0;
  /// Shards the out-of-core executor streamed through, 0 when the run
  /// took the whole-view path. Streaming engages only when the source is
  /// a shard directory whose layout ProbeShardStream accepts AND every
  /// grid row is a single-stage per-trace mechanism AND every evaluator
  /// is foldable (core::TraceFold) AND no output cache or watchdog is
  /// configured AND Run() was not asked for the terminal outputs; reports
  /// are byte-identical on either path.
  std::size_t streamed_shards = 0;
  /// Multi-process supervision accounting (core/shard_exec.h), all 0
  /// unless ScenarioSpec::workers engaged the worker path:
  /// processes forked (including respawns), spawns beyond a subset's
  /// first (the retry evidence), and (stage, subset) permanent failures
  /// (retry exhaustion or worker-reported errors).
  std::size_t workers_spawned = 0;
  std::size_t worker_restarts = 0;
  std::size_t worker_failures = 0;
  /// Graceful-degradation accounting: nodes that threw (or tripped the
  /// node_timeout_ms watchdog) and nodes skipped because a dependency
  /// failed. Both 0 on a healthy run.
  std::size_t failed_nodes = 0;
  std::size_t skipped_nodes = 0;
  double bind_ms = 0.0;             ///< source open/map/parse time
  double run_ms = 0.0;              ///< DAG execution wall clock
  /// Traces and events of the bound source (the whole view, or pass 0's
  /// scan of every shard). Left out of ToString(): the stats line is a
  /// parsed format (CI greps, perfbench regexes).
  std::size_t source_traces = 0;
  std::size_t source_events = 0;

  [[nodiscard]] std::string ToString() const;
};

class ScenarioEngine {
 public:
  /// Validates and compiles the spec: creates the mechanism and evaluator
  /// instances (throwing util::SpecError on any unknown spec string) and
  /// lays out the DAG. No dataset is touched until Run().
  explicit ScenarioEngine(ScenarioSpec spec);
  ~ScenarioEngine();

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  /// Binds the source and executes the DAG. Safe to call once.
  ///
  /// With `terminals` non-null the caller keeps the mechanism outputs:
  /// the run takes the whole-view DAG (the caller holds every output
  /// anyway, so streaming would save nothing) and, once it completes,
  /// `*terminals` receives one store per (row, seed) in report order,
  /// each moved out of the engine. A row whose terminal stage did not
  /// finish ok gets an empty store; its report error row says why. Such
  /// a run may have no evaluators at all — this is how a publisher runs
  /// the mechanism exactly once and both writes and scores its output.
  [[nodiscard]] Report Run(std::vector<model::EventStore>* terminals = nullptr);

  /// Valid after Run().
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

 private:
  struct Compiled;
  std::unique_ptr<Compiled> compiled_;
  EngineStats stats_;
};

/// One-call form: compile, run, return the report.
[[nodiscard]] Report RunScenario(ScenarioSpec spec);

}  // namespace mobipriv::core
