// Declarative experiment scenarios: WHAT to run, not HOW.
//
// A ScenarioSpec names a dataset source, a list of mechanism spec strings
// (mechanisms/registry.h), a list of evaluator spec strings
// (core/evaluator.h), the seeds of the grid and an optional thread
// override. core/engine.h compiles the spec into a task DAG and executes
// it. The engine-backed benches are a spec plus a table dump; the figure
// benches (bench_fig1_pipeline, bench_mixzone_sweep, bench_sampling_rate,
// bench_ablation) still run their own mechanism loops.
//
// The dataset source abstracts every way the library can obtain data:
//   * a CSV / Geolife text file (parsed once at bind time),
//   * a `.mpc` columnar file (mmap-opened; mechanisms and evaluators are
//     fed zero-copy views of the mapping — no full-dataset Materialize),
//   * a SaveShards directory (every shard `.mpc` mmap-opened; the
//     manifest's global name table and recorded trace order reassemble
//     the canonical view zero-copy, so the report is byte-identical
//     whatever the shard count),
//   * a synthetic world (generated at bind time), or
//   * a borrowed in-memory Dataset (tests, composition).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/columnar_file.h"
#include "model/dataset.h"
#include "model/sharded_dataset.h"
#include "model/views.h"
#include "util/rng.h"

namespace mobipriv::synth {
class SyntheticWorld;
}  // namespace mobipriv::synth

namespace mobipriv::core {

struct DatasetSourceSpec {
  enum class Kind {
    kNone,
    kCsvFile,
    kColumnarFile,
    kShardDir,
    kSynthetic,
    kBorrowed,
  };

  Kind kind = Kind::kNone;
  std::string path;  ///< kCsvFile / kColumnarFile / kShardDir
  // kSynthetic parameters.
  std::size_t agents = 50;
  std::size_t days = 1;
  std::uint64_t world_seed = 42;
  // kBorrowed: non-owning; must outlive the bound source.
  const model::Dataset* borrowed = nullptr;

  [[nodiscard]] static DatasetSourceSpec CsvFile(std::string path);
  [[nodiscard]] static DatasetSourceSpec ColumnarFile(std::string path);
  [[nodiscard]] static DatasetSourceSpec ShardDir(std::string path);
  [[nodiscard]] static DatasetSourceSpec Synthetic(
      std::size_t agents, std::size_t days, std::uint64_t world_seed);
  [[nodiscard]] static DatasetSourceSpec Borrowed(
      const model::Dataset& dataset);
  /// Dispatches on the path: a directory containing `manifest.mpm` is a
  /// shard dir, a `.mpc` file is columnar, anything else is CSV/text.
  [[nodiscard]] static DatasetSourceSpec FromPath(std::string path);

  [[nodiscard]] std::string Describe() const;
};

/// One declarative experiment grid:
///   source x mechanisms x evaluators x seeds.
struct ScenarioSpec {
  DatasetSourceSpec source;
  /// Mechanism spec strings (mech::CreateMechanism). Entries that
  /// canonicalize to the same Name() share one memoized node per seed.
  std::vector<std::string> mechanisms;
  /// Evaluator spec strings (core::CreateEvaluator).
  std::vector<std::string> evaluators;
  std::vector<std::uint64_t> seeds = {1};
  /// Worker override for the run (0 = ambient). Reports are byte-identical
  /// at any value — this is a resource knob, never a semantic one.
  std::size_t threads = 0;
  /// When non-empty, mechanism outputs are spilled to / reused from this
  /// directory as `.mpc` files, content-addressed by (canonical mechanism
  /// name, dataset fingerprint, seed) — see docs/FORMAT.md "Cached
  /// mechanism outputs". A stale or corrupt entry is never reused: the
  /// engine recomputes and overwrites it. Purely a performance knob;
  /// reports are byte-identical with the cache on, off, cold or warm.
  std::string mechanism_cache_dir;
  /// Byte cap for `mechanism_cache_dir` (0 = unbounded). When a spill
  /// pushes the directory past the cap, least-recently-used entries are
  /// evicted until it fits (recency = last reuse). Evicting a live entry
  /// only costs a recompute — reports stay byte-identical under any cap.
  std::uint64_t mechanism_cache_max_bytes = 0;
  /// Per-node wall-clock watchdog, milliseconds (0 = off). A node whose
  /// execution exceeds this is recorded as failed ("node exceeded
  /// node_timeout" error row) and its dependents are skipped; the rest of
  /// the grid completes normally. In-process the check is applied at node
  /// completion — it contains a slow node's blast radius, it does not
  /// preempt it; with `workers` > 0 it becomes the per-request deadline
  /// of the worker supervisor (core/shard_exec.h), which DOES preempt:
  /// the worker is killed and the request retried.
  double node_timeout_ms = 0.0;
  /// Worker PROCESS count for shard-dir sources (0 = in-process). When
  /// > 0 and the grid is shard-streamable (see EngineStats::
  /// streamed_shards), mechanism stages run in supervised
  /// `mobipriv_worker` processes with crash/timeout retry and graceful
  /// per-stage degradation (core/shard_exec.h). Reports are
  /// byte-identical at any value — a resource/robustness knob, never a
  /// semantic one. Ignored (in-process fallback) when the source is not
  /// shard-streamable or the worker binary cannot be found.
  std::size_t workers = 0;
  /// Worker executable override; empty = the `mobipriv_worker` next to
  /// the current executable (DefaultWorkerBinary()).
  std::string worker_binary;
};

/// The RNG stream of one mechanism stage of a grid cell, seeded from the
/// cell seed and the FNV-1a hash of the stage's PREFIX canonical name
/// ("a|b" for the second stage of chain a|b). A stage's bytes therefore
/// depend only on its own prefix, never on which other rows share the
/// grid. Every executor draws from this stream: the DAG stage node hands
/// it to ApplyToStore, and the shard-streamed merge and mobipriv_worker
/// take the per-trace master with the same single NextU64() that
/// ApplyToStore makes.
[[nodiscard]] util::Rng StageStream(std::uint64_t seed,
                                    std::string_view prefix_name);

/// Parses a sweep-config text (the `anonymize_csv --sweep` file format;
/// docs/FORMAT.md, "Sweep config files") into a ScenarioSpec. Line
/// oriented `key = value`; '#' starts a comment; blank lines are ignored.
/// Keys: source, mechanisms, evaluators, seeds, threads, workers,
/// cache_dir, cache_max_bytes, node_timeout_ms (mechanism/evaluator
/// accepted as singular aliases). List values split on top-level commas, so chain and
/// bracket parameters pass through intact. Unknown keys and malformed
/// values throw util::SpecError with the offending line number; `context`
/// (typically the file name) prefixes every message.
[[nodiscard]] ScenarioSpec ParseSweepConfig(std::string_view text,
                                            const std::string& context);

/// Reads `path` and parses it with ParseSweepConfig(text, path). Throws
/// model::IoError when the file cannot be read.
[[nodiscard]] ScenarioSpec LoadSweepConfig(const std::string& path);

/// Access plan for executing a shard directory one shard at a time (the
/// engine's out-of-core path): the manifest metadata plus the per-shard
/// translation tables the streamed executor needs, with no shard resident.
/// The same tables are what BoundSource::Bind assembles its canonical view
/// from, so both executors see one trace order.
struct ShardStreamPlan {
  std::string dir;
  std::size_t shard_count = 0;
  /// Global dense id -> external user name (manifest name table).
  std::vector<std::string> global_names;
  /// Canonical position of shard s's local trace i — its index in the
  /// bound source's view: the manifest's recorded origin, or shard-major
  /// order when the manifest records none.
  std::vector<std::vector<std::size_t>> origin;
  /// Per shard: shard-local user id -> global dense id.
  std::vector<std::vector<model::UserId>> local_to_global;
  std::size_t total_traces = 0;
};

/// Probes `dir` for shard-streamed eligibility and builds the plan. The
/// probe reads the directory once (manifest plus each shard's metadata
/// pages, through the same reader as BoundSource::Bind) and requires:
///   * canonical positions strictly ascending within every shard
///     (shard-local order == canonical order restricted), and
///   * every user's traces confined to one shard (per-user passes then
///     see whole users).
/// Returns nullopt when either condition fails — including I/O or
/// corruption problems, which the whole-view bind will then surface with
/// its own diagnostics. Streaming is a resource strategy, never a semantic
/// one.
[[nodiscard]] std::optional<ShardStreamPlan> ProbeShardStream(
    const std::string& dir);

/// Shard `shard`'s traces in shard order, relabelled into the global user
/// id space: `mapped` is the caller's mapping of
/// model::ShardDataPath(plan.dir, shard). The one relabel every shard-dir
/// consumer goes through (BoundSource::Bind, the streamed merge and the
/// shard body of core/shard_stage.h). Throws model::IoError when the
/// mapped trace count disagrees with the plan.
[[nodiscard]] std::vector<model::TraceView> GlobalShardViews(
    const ShardStreamPlan& plan, std::size_t shard,
    const model::MappedColumnar& mapped);

/// A bound dataset source: owns whatever storage the source kind needs
/// (parsed dataset, synthetic world, mmap mappings) and serves one
/// canonical zero-copy DatasetView over it. For shard directories the
/// canonical view places every trace at its ShardStreamPlan position
/// under the global user-id space, so the SAME view (and therefore the
/// same downstream report) emerges from any shard count.
class BoundSource {
 public:
  /// Binds `spec`, loading/mapping as needed (shard files map
  /// concurrently). Throws model::IoError on I/O or corruption problems.
  [[nodiscard]] static BoundSource Bind(const DatasetSourceSpec& spec);

  // Out of line: unique_ptr<SyntheticWorld> needs the complete type.
  BoundSource(BoundSource&&) noexcept;
  BoundSource& operator=(BoundSource&&) noexcept;
  ~BoundSource();
  BoundSource(const BoundSource&) = delete;
  BoundSource& operator=(const BoundSource&) = delete;

  /// The canonical view. Valid while this BoundSource lives.
  [[nodiscard]] const model::DatasetView& view() const noexcept {
    return view_;
  }
  [[nodiscard]] const std::string& description() const noexcept {
    return description_;
  }

 private:
  BoundSource() = default;

  std::string description_;
  // Exactly one of these owns the events, depending on the source kind.
  model::Dataset owned_;
  std::unique_ptr<synth::SyntheticWorld> world_;
  model::MappedColumnar mapped_;
  std::vector<model::MappedColumnar> shard_maps_;
  std::vector<std::string> shard_names_;  // manifest global name table
  model::DatasetView view_;
};

}  // namespace mobipriv::core
