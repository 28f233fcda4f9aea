#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "attacks/poi_extraction.h"
#include "core/evaluator.h"
#include "core/output_cache.h"
#include "core/shard_exec.h"
#include "core/shard_stage.h"
#include "core/worker_protocol.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/spec.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv::core {
namespace {

namespace fault = util::fault;

/// One node of the compiled DAG. Nodes are stored in topological order
/// (mechanisms before their evaluations), so the serial fallback is a
/// plain index loop.
struct DagNode {
  std::function<void()> work;
  std::vector<std::size_t> dependents;
  std::size_t dependency_count = 0;
  /// False for a node that applies node_timeout_ms itself and never fails
  /// as a DAG node (a prepare node hands its verdict to its cells).
  bool watchdog = true;
};

/// Per-node outcome of one DAG execution (graceful degradation: nothing
/// rethrows; every node gets a verdict).
enum class NodeStatus { kOk, kFailed, kSkipped };
struct NodeResult {
  NodeStatus status = NodeStatus::kOk;
  std::string error;  ///< exception text / watchdog verdict; empty when ok
};

/// Canonical watchdog verdict. Deliberately free of measured times: the
/// error row must be byte-identical at any thread count and on any
/// machine, so only the (deterministic) configured limit appears.
std::string WatchdogError(double timeout_ms) {
  return "node exceeded node_timeout (" +
         util::FormatDouble(timeout_ms, 0) + " ms watchdog)";
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The error text a contained node records for `error`.
std::string ErrorText(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Executes the DAG with per-node error containment. A node that throws
/// is recorded kFailed (exception text captured); every transitive
/// dependent is recorded kSkipped with the root cause, WITHOUT running;
/// all other branches complete normally. With `node_timeout_ms` > 0, a
/// node whose work exceeds the wall-clock budget is recorded kFailed
/// after completion (containment, not preemption — see ScenarioSpec).
///
/// Parallel path: every dependency-free node is submitted to the shared
/// pool; completions decrement their dependents' pending counts and
/// submit newly-ready nodes. All results land in pre-sized slots, so
/// scheduling order never shows in the output.
std::vector<NodeResult> ExecuteDag(std::vector<DagNode>& nodes,
                                   double node_timeout_ms) {
  std::vector<NodeResult> results(nodes.size());

  // Runs one node's work in containment: records ok/failed (+ watchdog).
  const auto run_contained = [&](std::size_t index) {
    NodeResult& result = results[index];
    const auto start = std::chrono::steady_clock::now();
    try {
      nodes[index].work();
    } catch (const std::exception& e) {
      result.status = NodeStatus::kFailed;
      result.error = e.what();
      return;
    } catch (...) {
      result.status = NodeStatus::kFailed;
      result.error = "unknown exception";
      return;
    }
    if (node_timeout_ms > 0.0 && nodes[index].watchdog) {
      if (ElapsedMs(start) > node_timeout_ms) {
        result.status = NodeStatus::kFailed;
        result.error = WatchdogError(node_timeout_ms);
      }
    }
  };
  // Marks `dependent` skipped because `index` did not finish ok. First
  // cause wins (a node with two failed dependencies reports the one that
  // reached it first — in the serial schedule that is the lower index,
  // and the parallel path pins the same choice via the skip guard below).
  const auto skip_reason = [&](std::size_t index) {
    const NodeResult& cause = results[index];
    return cause.status == NodeStatus::kFailed
               ? "dependency failed: " + cause.error
               : cause.error;  // transitively skipped: forward root cause
  };

  // Effective worker count 1, or a DAG too small to amortize a pool
  // round-trip: run the topological order inline (nodes are stored in
  // dependency order, so a plain index loop is a valid schedule).
  if (util::ParallelismLevel() <= 1 || nodes.size() <= 1) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (results[i].status == NodeStatus::kOk) run_contained(i);
      if (results[i].status == NodeStatus::kOk) continue;
      for (const std::size_t dependent : nodes[i].dependents) {
        if (results[dependent].status == NodeStatus::kOk) {
          results[dependent].status = NodeStatus::kSkipped;
          results[dependent].error = skip_reason(i);
        }
      }
    }
    return results;
  }

  std::vector<std::atomic<std::size_t>> pending(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    pending[i].store(nodes[i].dependency_count, std::memory_order_relaxed);
  }

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t completed = 0;

  util::ThreadPool& pool = util::ThreadPool::Global();
  std::function<void(std::size_t)> run_node = [&](std::size_t index) {
    bool skipped;
    {
      // The skip mark (written by a failed parent under this mutex,
      // before it decrements our pending count) is visible here: the
      // last decrement happens-before this node runs.
      const std::lock_guard<std::mutex> lock(mutex);
      skipped = results[index].status == NodeStatus::kSkipped;
    }
    if (!skipped) run_contained(index);
    const bool propagate = results[index].status != NodeStatus::kOk;
    for (const std::size_t dependent : nodes[index].dependents) {
      if (propagate) {
        const std::lock_guard<std::mutex> lock(mutex);
        // First cause wins; a dependent two failed parents race for is
        // claimed exactly once.
        if (results[dependent].status == NodeStatus::kOk) {
          results[dependent].status = NodeStatus::kSkipped;
          results[dependent].error = skip_reason(index);
        }
      }
      if (pending[dependent].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pool.Submit([&run_node, dependent] { run_node(dependent); });
      }
    }
    {
      // Notify under the lock: the waiter owns this stack frame, so it
      // must not be able to wake, return and destroy the cv while this
      // worker is still inside notify_one.
      const std::lock_guard<std::mutex> lock(mutex);
      ++completed;
      done_cv.notify_one();
    }
  };

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].dependency_count == 0) {
      pool.Submit([&run_node, i] { run_node(i); });
    }
  }
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return completed == nodes.size(); });
  return results;
}

}  // namespace

std::string_view ToString(RowStatus status) noexcept {
  switch (status) {
    case RowStatus::kOk:
      return "ok";
    case RowStatus::kFailed:
      return "failed";
    case RowStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

bool Report::AllOk() const noexcept {
  return std::all_of(rows_.begin(), rows_.end(), [](const ReportRow& row) {
    return row.status == RowStatus::kOk;
  });
}

Table Report::ToTable() const {
  Table table({"mechanism", "seed", "evaluator", "metric", "value", "status",
               "error"});
  for (const ReportRow& row : rows_) {
    // Non-ok rows render a blank value: 0.0 would read as a measurement.
    table.AddRow({row.mechanism, std::to_string(row.seed), row.evaluator,
                  row.metric,
                  row.status == RowStatus::kOk
                      ? util::FormatDouble(row.value, kValuePrecision)
                      : std::string(),
                  std::string(ToString(row.status)), row.error});
  }
  return table;
}

std::string Report::ToCsv() const { return ToTable().ToCsv(); }

Table Report::Pivot(std::string_view evaluator) const {
  // Collect metric columns in first-appearance order, then one wide row
  // per (mechanism, seed) in row order.
  std::vector<std::string> metrics;
  for (const ReportRow& row : rows_) {
    if (row.evaluator != evaluator) continue;
    if (row.status != RowStatus::kOk) continue;  // no "" metric column
    if (std::find(metrics.begin(), metrics.end(), row.metric) ==
        metrics.end()) {
      metrics.push_back(row.metric);
    }
  }
  std::vector<std::string> headers = {"mechanism", "seed"};
  headers.insert(headers.end(), metrics.begin(), metrics.end());
  Table table(std::move(headers));

  std::vector<std::pair<std::string, std::uint64_t>> keys;
  std::map<std::pair<std::string, std::uint64_t>,
           std::vector<std::string>> cells;
  for (const ReportRow& row : rows_) {
    if (row.evaluator != evaluator) continue;
    if (row.status != RowStatus::kOk) continue;  // degraded cells stay blank
    const auto key = std::make_pair(row.mechanism, row.seed);
    auto it = cells.find(key);
    if (it == cells.end()) {
      keys.push_back(key);
      it = cells.emplace(key, std::vector<std::string>(metrics.size()))
               .first;
    }
    const auto column = std::find(metrics.begin(), metrics.end(), row.metric);
    it->second[static_cast<std::size_t>(column - metrics.begin())] =
        util::FormatDouble(row.value, kValuePrecision);
  }
  for (const auto& key : keys) {
    std::vector<std::string> row = {key.first, std::to_string(key.second)};
    const auto& values = cells[key];
    row.insert(row.end(), values.begin(), values.end());
    table.AddRow(std::move(row));
  }
  return table;
}

std::string EngineStats::ToString() const {
  std::ostringstream os;
  os << "grid_cells=" << grid_cells
     << " mechanism_nodes=" << mechanism_nodes
     << " evaluator_nodes=" << evaluator_nodes;
  if (prepare_nodes > 0) os << " prepare_nodes=" << prepare_nodes;
  if (stage_reuses > 0) os << " stage_reuses=" << stage_reuses;
  if (cache_hits + cache_misses > 0) {
    os << " cache_hits=" << cache_hits << " cache_misses=" << cache_misses;
  }
  if (cache_read_retries > 0) {
    os << " cache_read_retries=" << cache_read_retries;
  }
  if (cache_evictions > 0) os << " cache_evictions=" << cache_evictions;
  if (streamed_shards > 0) os << " streamed_shards=" << streamed_shards;
  if (workers_spawned > 0) {
    os << " workers_spawned=" << workers_spawned
       << " worker_restarts=" << worker_restarts
       << " worker_failures=" << worker_failures;
  }
  if (failed_nodes + skipped_nodes > 0) {
    os << " failed_nodes=" << failed_nodes
       << " skipped_nodes=" << skipped_nodes;
  }
  os << " bind_ms=" << util::FormatDouble(bind_ms, 2)
     << " run_ms=" << util::FormatDouble(run_ms, 2);
  return os.str();
}

struct ScenarioEngine::Compiled {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// One memoized stage node: a distinct (prefix canonical name, seed)
  /// pair. Names round-trip and are injective on the config, so the
  /// canonical name identifies exactly one configured mechanism. The
  /// instance is still built from the stage's ORIGINAL spec text: a
  /// factory replaced through RegisterMechanism may key on the text it
  /// was given rather than on the canonical name.
  struct StagePlan {
    std::string prefix_name;  ///< stage names [0..k] joined with '|'
    std::string spec_text;    ///< original stage spec text (worker dispatch)
    std::size_t parent = kNoParent;  ///< previous stage's node, if any
    std::size_t seed_index = 0;
    std::unique_ptr<mech::Mechanism> instance;
  };
  /// One report row group: a deduped chain (possibly single-stage) of the
  /// spec, in first-appearance order. Rows that canonicalize to the same
  /// chain name share everything (first spec text wins).
  struct RowPlan {
    std::string name;                   ///< canonical chain Name()
    std::vector<std::size_t> terminal;  ///< last stage node, per seed index
  };

  ScenarioSpec spec;
  std::vector<StagePlan> stage_nodes;  ///< parents precede children
  std::vector<RowPlan> rows;
  std::size_t stage_refs = 0;  ///< total (row, seed, stage) references
  std::vector<std::string> eval_names;
  std::vector<std::unique_ptr<Evaluator>> evaluators;
  /// Parallel to `evaluators`: the evaluator when it splits off a prepared
  /// original side, else nullptr.
  std::vector<const PreparedEvaluator*> prepared;
  bool ran = false;
};

ScenarioEngine::ScenarioEngine(ScenarioSpec spec)
    : compiled_(std::make_unique<Compiled>()) {
  compiled_->spec = std::move(spec);
  Compiled& c = *compiled_;
  const ScenarioSpec& s = c.spec;
  if (s.mechanisms.empty()) {
    throw util::SpecError("scenario has no mechanisms");
  }
  if (s.seeds.empty()) throw util::SpecError("scenario has no seeds");

  const std::size_t seed_count = s.seeds.size();
  // (prefix canonical name, seed index) -> stage node. The map is the
  // in-memory memoization: rows sharing a chain prefix reuse its nodes.
  std::map<std::pair<std::string, std::size_t>, std::size_t> node_index;
  for (const std::string& text : s.mechanisms) {
    // Stage k's node is keyed by its prefix name, the ChainName of stages
    // [0..k]. Spec entries keep values verbatim, so ToString() reproduces
    // each stage's original text (no precision loss).
    const util::SpecChain chain = util::SpecChain::Parse(text);
    std::vector<std::string> stage_texts;
    std::vector<std::string> prefix_names;
    for (const util::Spec& stage : chain.stages()) {
      stage_texts.push_back(stage.ToString());
      prefix_names.push_back(mech::ChainName(util::Join(stage_texts, "|")));
    }
    const std::string& chain_name = prefix_names.back();
    if (std::any_of(c.rows.begin(), c.rows.end(),
                    [&](const Compiled::RowPlan& row) {
                      return row.name == chain_name;
                    })) {
      continue;  // deduped: first spec text wins
    }
    Compiled::RowPlan row;
    row.name = chain_name;
    row.terminal.resize(seed_count);
    for (std::size_t seed = 0; seed < seed_count; ++seed) {
      std::size_t parent = Compiled::kNoParent;
      for (std::size_t k = 0; k < prefix_names.size(); ++k) {
        ++c.stage_refs;
        const auto key = std::make_pair(prefix_names[k], seed);
        auto it = node_index.find(key);
        if (it == node_index.end()) {
          Compiled::StagePlan plan;
          plan.prefix_name = prefix_names[k];
          plan.spec_text = stage_texts[k];
          plan.parent = parent;
          plan.seed_index = seed;
          plan.instance = mech::CreateMechanism(stage_texts[k]);
          c.stage_nodes.push_back(std::move(plan));
          it = node_index.emplace(key, c.stage_nodes.size() - 1).first;
        }
        parent = it->second;
      }
      row.terminal[seed] = parent;
    }
    c.rows.push_back(std::move(row));
  }
  for (const std::string& text : s.evaluators) {
    auto evaluator = CreateEvaluator(text);
    std::string name = evaluator->Name();
    if (std::find(c.eval_names.begin(), c.eval_names.end(), name) ==
        c.eval_names.end()) {
      c.eval_names.push_back(std::move(name));
      c.prepared.push_back(
          dynamic_cast<const PreparedEvaluator*>(evaluator.get()));
      c.evaluators.push_back(std::move(evaluator));
    }
  }
}

ScenarioEngine::~ScenarioEngine() = default;

Report ScenarioEngine::Run(std::vector<model::EventStore>* terminals) {
  Compiled& c = *compiled_;
  if (c.ran) throw std::logic_error("ScenarioEngine::Run called twice");
  c.ran = true;

  // threads == 0 inherits the ambient level (a --threads flag or an
  // enclosing ScopedParallelism); ScopedParallelism(0) would instead
  // RESET to the hardware default, so only scope when explicitly set.
  std::optional<util::ScopedParallelism> scope;
  if (c.spec.threads != 0) scope.emplace(c.spec.threads);

  const std::vector<std::uint64_t>& seeds = c.spec.seeds;
  const std::size_t seed_count = seeds.size();
  const std::size_t eval_count = c.evaluators.size();
  const std::size_t stage_count = c.stage_nodes.size();
  const std::size_t row_count = c.rows.size();
  const std::size_t eval_nodes = row_count * seed_count * eval_count;

  // One prepared column per (prepared evaluator, seed): column
  // column_rank[e] * seed_count + s holds evaluator e's original side for
  // seed s, shared by every row. Node results are laid out as stages,
  // then columns (always ok: a column's verdict goes to its cells), then
  // cells.
  std::vector<std::size_t> column_rank(eval_count, Compiled::kNoParent);
  std::size_t prepared_count = 0;
  for (std::size_t e = 0; e < eval_count; ++e) {
    if (c.prepared[e] != nullptr) column_rank[e] = prepared_count++;
  }
  const std::size_t column_count = prepared_count * seed_count;
  const auto column_of = [&](std::size_t e, std::size_t s) {
    return column_rank[e] == Compiled::kNoParent
               ? Compiled::kNoParent
               : column_rank[e] * seed_count + s;
  };
  const std::size_t cell_base = stage_count + column_count;

  stats_.grid_cells =
      c.spec.mechanisms.size() * seed_count * c.spec.evaluators.size();
  stats_.mechanism_nodes = stage_count;
  stats_.stage_reuses = c.stage_refs - stage_count;
  stats_.evaluator_nodes = eval_nodes;
  stats_.prepare_nodes = column_count;

  // ---- Report assembly, shared by the DAG and the shard stream. -------
  // A row whose terminal did not finish ok contributes one
  // mechanism-level error row (empty evaluator/metric) followed by one
  // skipped row per evaluator; a terminal skipped by an interior stage
  // failure forwards the root cause. A failed evaluator node contributes
  // one error row for its cell. The assembly reads only node_results and
  // results slots — both indexed, never schedule-ordered — so degraded
  // reports are as reproducible as healthy ones.
  const auto assemble =
      [&](const std::vector<NodeResult>& node_results,
          const std::vector<std::vector<MetricValue>>& results) {
        for (const NodeResult& result : node_results) {
          if (result.status == NodeStatus::kFailed) ++stats_.failed_nodes;
          if (result.status == NodeStatus::kSkipped) ++stats_.skipped_nodes;
        }
        const auto to_row_status = [](NodeStatus status) {
          return status == NodeStatus::kFailed ? RowStatus::kFailed
                                               : RowStatus::kSkipped;
        };
        Report report;
        for (std::size_t r = 0; r < row_count; ++r) {
          for (std::size_t s = 0; s < seed_count; ++s) {
            const NodeResult& terminal_result =
                node_results[c.rows[r].terminal[s]];
            if (terminal_result.status != NodeStatus::kOk) {
              report.rows_.push_back({c.rows[r].name, seeds[s], "", "", 0.0,
                                      to_row_status(terminal_result.status),
                                      terminal_result.error});
            }
            for (std::size_t e = 0; e < eval_count; ++e) {
              const std::size_t slot = (r * seed_count + s) * eval_count + e;
              const NodeResult& eval_result = node_results[cell_base + slot];
              if (eval_result.status != NodeStatus::kOk) {
                report.rows_.push_back({c.rows[r].name, seeds[s],
                                        c.eval_names[e], "", 0.0,
                                        to_row_status(eval_result.status),
                                        eval_result.error});
                continue;
              }
              for (const MetricValue& value : results[slot]) {
                report.rows_.push_back({c.rows[r].name, seeds[s],
                                        c.eval_names[e], value.metric,
                                        value.value, RowStatus::kOk, {}});
              }
            }
          }
        }
        return report;
      };

  // ---- Shard-streamed eligibility (out-of-core execution). ------------
  // The shard stream engages only when semantics are provably identical to the whole-view
  // DAG: a shard-dir source whose layout ProbeShardStream accepts, every
  // grid row a single-stage per-trace mechanism (cross-trace mechanisms
  // and chains need the whole view), every evaluator foldable
  // (core::TraceFold), no output cache (its keys fingerprint the whole
  // source), no watchdog (a per-node wall clock has no meaning for
  // interleaved shard passes) and no caller asking for the terminal
  // outputs (streaming never holds them). Everything else falls back to
  // the DAG.
  bool foldable =
      terminals == nullptr &&
      c.spec.source.kind == DatasetSourceSpec::Kind::kShardDir &&
      c.spec.mechanism_cache_dir.empty();
  for (std::size_t i = 0; foldable && i < stage_count; ++i) {
    foldable = c.stage_nodes[i].parent == Compiled::kNoParent &&
               dynamic_cast<const mech::PerTraceMechanism*>(
                   c.stage_nodes[i].instance.get()) != nullptr;
  }
  for (std::size_t e = 0; foldable && e < eval_count; ++e) {
    foldable = c.prepared[e] != nullptr
                   ? c.prepared[e]->MakeOriginalFold(seeds[0]) != nullptr
                   : c.evaluators[e]->MakeTraceFold(seeds[0]) != nullptr;
  }
  // The worker placement additionally needs a worker binary; the
  // watchdog is COMPATIBLE with it (it becomes the per-request deadline,
  // with real preemption), while the in-process placement must leave
  // watchdogged grids to the DAG.
  std::string worker_binary;
  if (foldable && c.spec.workers > 0) {
    worker_binary = c.spec.worker_binary.empty() ? DefaultWorkerBinary()
                                                 : c.spec.worker_binary;
  }
  const bool want_workers = foldable && !worker_binary.empty();
  const bool streamable = foldable && c.spec.node_timeout_ms == 0.0;
  std::optional<ShardStreamPlan> stream;
  if (want_workers || streamable) {
    // The probe is this path's bind: manifest + per-shard metadata, no
    // event column ever resident.
    const auto probe_start = std::chrono::steady_clock::now();
    stream = ProbeShardStream(c.spec.source.path);
    stats_.bind_ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - probe_start)
                          .count();
  }

  // ---- The shard-streamed executor. -----------------------------------
  // One fold merge, two placements. The merge is the same either way: a
  // stage-fault sweep, pass 0 scanning the source for the original's
  // extents, one fold per live grid cell, pass 1 publishing each
  // (stage, shard) once and feeding every fold its slice shard by shard,
  // and a finalize sweep that applies the skip rule. Every (stage, shard)
  // is published by one body, core::ApplyStageToShard; the placement
  // decides only where it runs (`publish` below):
  //   * in-process: `publish` runs it on the shard pass 1 has mapped;
  //   * workers (core/shard_exec.h): every stage first runs it in
  //     disposable worker processes with heartbeat liveness, per-request
  //     deadlines and bounded retry; `publish` then maps the stage's
  //     atomically written `.mpc` result file for the shard. `.mpc`
  //     round-trips doubles bitwise and per-trace RNG streams are
  //     partition-independent, so the report is byte-identical at any
  //     worker count.
  // A stage that fails (retries exhausted, a worker-reported permanent
  // error, a torn result, a throwing kernel) degrades to the same
  // failed/skipped rows the DAG would produce.
  if (stream) {
    const ShardStreamPlan& plan = *stream;
    stats_.streamed_shards = plan.shard_count;
    std::vector<NodeResult> node_results(cell_base + eval_nodes);
    std::vector<std::vector<MetricValue>> results(eval_nodes);
    stats_.run_ms = TimeMs([&] {
      // Engine-side injected stage faults fire before any work, with the
      // same error text as the DAG. Per-stage master draws: the one
      // NextU64 ApplyToStore makes, from the same per-prefix stream — so
      // every per-trace rng (master, user, original index) matches the
      // DAG path bit for bit.
      std::vector<std::uint64_t> masters(stage_count, 0);
      for (std::size_t i = 0; i < stage_count; ++i) {
        const Compiled::StagePlan& stage = c.stage_nodes[i];
        if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kEngineMechanismRun,
                                       stage.prefix_name)) {
          node_results[i] = {
              NodeStatus::kFailed,
              "injected fault (" +
                  std::string(fault::points::kEngineMechanismRun) +
                  "): " + stage.prefix_name};
          continue;
        }
        masters[i] =
            StageStream(seeds[stage.seed_index], stage.prefix_name).NextU64();
      }

      // Worker result handoff directory, removed wholesale on exit
      // (including any torn temp a killed worker left behind).
      struct ScratchDir {
        std::string path;
        ~ScratchDir() {
          if (path.empty()) return;
          std::error_code ec;
          std::filesystem::remove_all(path, ec);
        }
      } scratch;
      const auto stage_stem = [](std::size_t n) {
        return "stage-" + std::to_string(n);
      };
      if (want_workers) {
        scratch.path = MakeScratchDir();
        std::vector<ShardStageTask> tasks;
        std::vector<std::size_t> task_stage;
        for (std::size_t i = 0; i < stage_count; ++i) {
          if (node_results[i].status != NodeStatus::kOk) continue;
          const Compiled::StagePlan& stage = c.stage_nodes[i];
          ShardStageTask task;
          task.spec_text = stage.spec_text;
          task.prefix_name = stage.prefix_name;
          task.stem = stage_stem(i);
          task.seed = seeds[stage.seed_index];
          tasks.push_back(std::move(task));
          task_stage.push_back(i);
        }
        ShardExecOptions exec_options;
        exec_options.worker_binary = worker_binary;
        exec_options.workers = c.spec.workers;
        exec_options.request_timeout_ms = c.spec.node_timeout_ms;
        ShardExecStats exec_stats;
        const std::vector<ShardStageOutcome> outcomes =
            RunShardStagesMultiProcess(plan, tasks, scratch.path,
                                       exec_options, &exec_stats);
        stats_.workers_spawned = exec_stats.workers_spawned;
        stats_.worker_restarts = exec_stats.worker_restarts;
        stats_.worker_failures = exec_stats.worker_failures;
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          if (!outcomes[t].ok) {
            node_results[task_stage[t]] = {NodeStatus::kFailed,
                                           outcomes[t].error};
          }
        }
      }

      // One stage's published views of one shard, with the storage they
      // alias: the shard body's result store in-process, a mapped result
      // file under workers.
      struct StageShard {
        model::EventStore store;
        model::MappedColumnar mapped;
        std::vector<model::TraceView> views;
      };
      // The placement step: fills `out` with stage n's output for shard s
      // (same trace order as `original`, same user labels), or records the
      // stage's failure verdict in `node_results`. In-process the shard
      // body runs here; under workers it already ran, and post-supervision
      // result loss is not retryable any more, so a missing or torn worker
      // result degrades with a deterministic (basename-only) error.
      const auto publish = [&](std::size_t n, std::size_t s,
                               const model::MappedColumnar& source,
                               std::span<const model::TraceView> original,
                               StageShard& out) {
        // Result traces carry shard-local user ids: each view takes its
        // original's global id. An empty range is a suppressed trace.
        const auto relabel = [&](const auto& result) {
          out.views.resize(original.size());
          for (std::size_t i = 0; i < original.size(); ++i) {
            out.views[i] = result.View(i).WithUser(original[i].user());
          }
        };
        if (want_workers) {
          const std::string path =
              wp::StageShardPath(scratch.path, stage_stem(n), s);
          try {
            out.mapped = model::MapColumnar(path);
            if (out.mapped.TraceCount() != original.size()) {
              throw model::IoError("trace count mismatch");
            }
          } catch (const std::exception&) {
            node_results[n] = {
                NodeStatus::kFailed,
                "result missing or torn after supervision: " +
                    std::filesystem::path(path).filename().string()};
            return;
          }
          relabel(out.mapped);
          return;
        }
        try {
          out.store = ApplyStageToShard(
              static_cast<const mech::PerTraceMechanism&>(
                  *c.stage_nodes[n].instance),
              masters[n], plan, s, source);
        } catch (const std::exception& e) {
          node_results[n] = {NodeStatus::kFailed, e.what()};
          return;
        } catch (...) {
          node_results[n] = {NodeStatus::kFailed, "unknown exception"};
          return;
        }
        relabel(out.store);
      };

      // Pass 0 (extents): a read-only scan of the source shards for the
      // full original's bounding box and time span every fold's slice
      // must carry. Nothing is published here.
      geo::GeoBoundingBox original_bbox;
      util::Timestamp t_min = std::numeric_limits<util::Timestamp>::max();
      util::Timestamp t_max = std::numeric_limits<util::Timestamp>::min();
      for (std::size_t s = 0; s < plan.shard_count; ++s) {
        const model::MappedColumnar mapped =
            model::MapColumnar(model::ShardDataPath(plan.dir, s));
        for (const model::TraceView& trace :
             GlobalShardViews(plan, s, mapped)) {
          ++stats_.source_traces;
          stats_.source_events += trace.size();
          original_bbox.Extend(trace.BoundingBox());
          if (!trace.empty()) {
            t_min = std::min(t_min, trace.time(0));
            t_max = std::max(t_max, trace.time(trace.size() - 1));
          }
        }
      }

      // One original-side fold per prepared column. Pass 1 feeds it every
      // shard once, before the cells; its result reaches the column's cell
      // folds through `prepared`, and an error it throws fails every live
      // cell of the column with that error's text, as a throwing Evaluate
      // fails its own cell.
      struct Column {
        std::unique_ptr<OriginalFold> fold;
        std::promise<PreparedPtr> promise;
        std::shared_future<PreparedPtr> prepared;
        std::exception_ptr error;
      };
      std::vector<Column> columns(column_count);
      for (std::size_t e = 0; e < eval_count; ++e) {
        for (std::size_t s = 0; s < seed_count; ++s) {
          const std::size_t col = column_of(e, s);
          if (col == Compiled::kNoParent) continue;
          columns[col].fold = c.prepared[e]->MakeOriginalFold(seeds[s]);
          columns[col].prepared = columns[col].promise.get_future().share();
        }
      }
      const auto contain = [](const std::function<void()>& work,
                              std::exception_ptr& error) {
        try {
          work();
        } catch (...) {
          error = std::current_exception();
        }
      };

      // One fold per grid cell whose terminal has not failed yet (skip and
      // fault verdicts mirror the DAG's evaluator nodes exactly).
      std::vector<std::unique_ptr<TraceFold>> folds(eval_nodes);
      for (std::size_t r = 0; r < row_count; ++r) {
        for (std::size_t s = 0; s < seed_count; ++s) {
          const std::size_t terminal = c.rows[r].terminal[s];
          for (std::size_t e = 0; e < eval_count; ++e) {
            const std::size_t slot = (r * seed_count + s) * eval_count + e;
            NodeResult& cell = node_results[cell_base + slot];
            if (node_results[terminal].status != NodeStatus::kOk) {
              cell = {NodeStatus::kSkipped,
                      "dependency failed: " + node_results[terminal].error};
              continue;
            }
            if (MOBIPRIV_FAULT_POINT_KEYED(
                    fault::points::kEngineEvaluatorRun, c.eval_names[e])) {
              cell = {NodeStatus::kFailed,
                      "injected fault (" +
                          std::string(fault::points::kEngineEvaluatorRun) +
                          "): " + c.eval_names[e]};
              continue;
            }
            const std::size_t col = column_of(e, s);
            folds[slot] =
                col == Compiled::kNoParent
                    ? c.evaluators[e]->MakeTraceFold(seeds[s])
                    : c.prepared[e]->MakeScoreFold(columns[col].prepared,
                                                   seeds[s]);
          }
        }
      }
      // A live cell whose column has failed takes the column's error.
      const auto fail_on_column = [&](std::size_t slot, std::size_t col) {
        NodeResult& cell = node_results[cell_base + slot];
        if (col == Compiled::kNoParent || !columns[col].error ||
            cell.status != NodeStatus::kOk || !folds[slot]) {
          return false;
        }
        cell = {NodeStatus::kFailed, ErrorText(columns[col].error)};
        folds[slot].reset();
        return true;
      };

      // Pass 1 (folds): map one shard, publish each surviving stage's
      // output for THAT shard only — the only time any (stage, shard) is
      // published — feed every column and then every live cell fold its
      // slice in ascending shard order, drop everything, move on: the
      // resident set the streamed path promises is one shard's input plus
      // one shard's outputs.
      for (std::size_t s = 0; s < plan.shard_count; ++s) {
        const model::MappedColumnar mapped =
            model::MapColumnar(model::ShardDataPath(plan.dir, s));
        const std::vector<model::TraceView> original =
            GlobalShardViews(plan, s, mapped);
        std::vector<StageShard> published(stage_count);
        for (std::size_t n = 0; n < stage_count; ++n) {
          if (node_results[n].status == NodeStatus::kOk) {
            publish(n, s, mapped, original, published[n]);
          }
        }
        ShardSlice slice;
        slice.original = original;
        slice.canonical_index = plan.origin[s];
        slice.user_count = plan.global_names.size();
        slice.original_bbox = original_bbox;
        slice.original_t_min = t_min;
        slice.original_t_max = t_max;
        for (Column& column : columns) {
          if (!column.fold) continue;
          contain([&] { column.fold->AccumulateShard(slice); }, column.error);
          if (column.error) column.fold.reset();
        }
        for (std::size_t r = 0; r < row_count; ++r) {
          for (std::size_t ss = 0; ss < seed_count; ++ss) {
            const std::size_t terminal = c.rows[r].terminal[ss];
            if (node_results[terminal].status != NodeStatus::kOk) continue;
            slice.published = published[terminal].views;
            for (std::size_t e = 0; e < eval_count; ++e) {
              const std::size_t slot =
                  (r * seed_count + ss) * eval_count + e;
              NodeResult& cell = node_results[cell_base + slot];
              if (fail_on_column(slot, column_of(e, ss))) continue;
              if (cell.status != NodeStatus::kOk || !folds[slot]) continue;
              std::exception_ptr error;
              contain([&] { folds[slot]->AccumulateShard(slice); }, error);
              if (error) cell = {NodeStatus::kFailed, ErrorText(error)};
            }
          }
        }
      }
      for (Column& column : columns) {
        if (!column.fold) continue;
        contain([&] { column.promise.set_value(column.fold->Finalize()); },
                column.error);
        column.fold.reset();
      }

      // A stage failing mid-stream strands its cells' partial folds. The
      // DAG never runs a dependent of a failed node, so every cell of a
      // failed terminal is skipped whatever its own verdict so far (an
      // armed evaluator fault or a throwing fold included); then finalize
      // survivors.
      for (std::size_t r = 0; r < row_count; ++r) {
        for (std::size_t s = 0; s < seed_count; ++s) {
          const std::size_t terminal = c.rows[r].terminal[s];
          for (std::size_t e = 0; e < eval_count; ++e) {
            const std::size_t slot = (r * seed_count + s) * eval_count + e;
            NodeResult& cell = node_results[cell_base + slot];
            if (node_results[terminal].status != NodeStatus::kOk) {
              cell = {NodeStatus::kSkipped,
                      "dependency failed: " + node_results[terminal].error};
              folds[slot].reset();
            }
            if (fail_on_column(slot, column_of(e, s))) continue;
            if (cell.status != NodeStatus::kOk || !folds[slot]) continue;
            std::exception_ptr error;
            contain([&] { results[slot] = folds[slot]->Finalize(); }, error);
            if (error) cell = {NodeStatus::kFailed, ErrorText(error)};
          }
        }
      }
    });
    return assemble(node_results, results);
  }

  // ---- Whole-view path. -----------------------------------------------
  // Bind is timed separately from the DAG: it is the mmap/parse startup
  // cost the columnar format exists to shrink.
  const auto bind_start = std::chrono::steady_clock::now();
  BoundSource source = BoundSource::Bind(c.spec.source);
  stats_.bind_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - bind_start)
                        .count();
  stats_.source_traces = source.view().TraceCount();
  stats_.source_events = source.view().EventCount();

  const geo::LocalProjection frame =
      attacks::DatasetProjection(source.view());

  // The `.mpc` output cache (optional). The dataset fingerprint is one
  // O(events) column scan, paid only when the cache is on. Stage nodes
  // key their outputs by PREFIX canonical name against the ORIGINAL
  // source fingerprint — sound because (prefix, source, seed) uniquely
  // determines a stage's bytes under the per-prefix rng discipline.
  std::optional<OutputCache> cache;
  std::uint64_t source_fingerprint = 0;
  if (!c.spec.mechanism_cache_dir.empty()) {
    cache.emplace(c.spec.mechanism_cache_dir,
                  c.spec.mechanism_cache_max_bytes);
    source_fingerprint = OutputCache::FingerprintView(source.view());
  }
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<std::size_t> cache_misses{0};

  // Result slots, pre-sized so DAG workers never allocate shared state.
  // Stage outputs are columnar stores — the SoA-native path: no AoS
  // dataset is ever built for a node; the next stage consumes the store
  // through a zero-copy view, and so does every evaluator of a terminal.
  std::vector<model::EventStore> outputs(stage_count);
  std::vector<model::DatasetView> published(stage_count);
  std::vector<std::vector<MetricValue>> results(eval_nodes);

  // ---- Compile the DAG (topological layout: stages, prepares, evals). --
  // Stage nodes are in creation order, so a node's parent always precedes
  // it; one prepare node per prepared column follows them, with no
  // dependency; evaluator nodes come last and depend on their row's
  // terminal and, when prepared, on their column's prepare node.
  std::vector<DagNode> nodes;
  nodes.reserve(cell_base + eval_nodes);
  for (std::size_t i = 0; i < stage_count; ++i) {
    const Compiled::StagePlan& plan = c.stage_nodes[i];
    DagNode dag_node;
    dag_node.dependency_count = plan.parent == Compiled::kNoParent ? 0 : 1;
    dag_node.work = [&, i] {
      const Compiled::StagePlan& stage = c.stage_nodes[i];
      // Keyed by prefix canonical name (== the mechanism name for
      // single-stage rows): an armed fault trips for exactly the chosen
      // node's stage, whichever worker runs it — the degraded report
      // stays byte-identical at any thread count. A kDelay spec at this
      // point slows the node instead (the watchdog test hook).
      if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kEngineMechanismRun,
                                     stage.prefix_name)) {
        throw std::runtime_error(
            "injected fault (" +
            std::string(fault::points::kEngineMechanismRun) +
            "): " + stage.prefix_name);
      }
      // Every stage node owns an independent StageStream: a row's bytes
      // depend only on its own stages, so adding grid rows (or suffix
      // stages elsewhere) never perturbs existing ones — the property that
      // makes prefix outputs shareable at all.
      util::Rng rng = StageStream(seeds[stage.seed_index], stage.prefix_name);
      std::string key_text;
      bool loaded = false;
      if (cache) {
        key_text = OutputCache::KeyText(stage.prefix_name,
                                        source_fingerprint,
                                        seeds[stage.seed_index]);
        loaded = cache->TryLoad(key_text, outputs[i]);
      }
      if (loaded) {
        cache_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        const model::DatasetView& input = stage.parent == Compiled::kNoParent
                                              ? source.view()
                                              : published[stage.parent];
        outputs[i] = stage.instance->ApplyToStore(input, rng);
        if (cache) {
          cache->Store(key_text, outputs[i]);
          cache_misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
      published[i] = outputs[i].View();
    };
    nodes.push_back(std::move(dag_node));
    if (plan.parent != Compiled::kNoParent) {
      nodes[plan.parent].dependents.push_back(i);
    }
  }
  // A prepare node never fails as a DAG node: it stores its error (or
  // its watchdog verdict) and every cell of its column rethrows it, so
  // the cells report "failed" with that text rather than "skipped".
  struct PreparedColumn {
    PreparedPtr value;
    std::exception_ptr error;
  };
  std::vector<PreparedColumn> columns(column_count);
  for (std::size_t e = 0; e < eval_count; ++e) {
    for (std::size_t s = 0; s < seed_count; ++s) {
      const std::size_t col = column_of(e, s);
      if (col == Compiled::kNoParent) continue;
      DagNode dag_node;
      dag_node.watchdog = false;
      dag_node.work = [&, e, s, col] {
        PreparedColumn& column = columns[col];
        const auto start = std::chrono::steady_clock::now();
        try {
          column.value = c.prepared[e]->Prepare(
              {source.view(), model::DatasetView(), frame, seeds[s]});
        } catch (...) {
          column.error = std::current_exception();
          return;
        }
        const double timeout_ms = c.spec.node_timeout_ms;
        if (timeout_ms > 0.0 && ElapsedMs(start) > timeout_ms) {
          column.error = std::make_exception_ptr(
              std::runtime_error(WatchdogError(timeout_ms)));
        }
      };
      nodes.push_back(std::move(dag_node));
    }
  }
  for (std::size_t r = 0; r < row_count; ++r) {
    for (std::size_t s = 0; s < seed_count; ++s) {
      const std::size_t terminal = c.rows[r].terminal[s];
      for (std::size_t e = 0; e < eval_count; ++e) {
        const std::size_t result_slot =
            (r * seed_count + s) * eval_count + e;
        const std::size_t col = column_of(e, s);
        DagNode dag_node;
        dag_node.dependency_count = col == Compiled::kNoParent ? 1 : 2;
        dag_node.work = [&, terminal, s, e, col, result_slot] {
          if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kEngineEvaluatorRun,
                                         c.eval_names[e])) {
            throw std::runtime_error(
                "injected fault (" +
                std::string(fault::points::kEngineEvaluatorRun) +
                "): " + c.eval_names[e]);
          }
          const EvalInput input{source.view(), published[terminal], frame,
                                seeds[s]};
          if (col == Compiled::kNoParent) {
            results[result_slot] = c.evaluators[e]->Evaluate(input);
            return;
          }
          const PreparedColumn& column = columns[col];
          if (column.error) std::rethrow_exception(column.error);
          results[result_slot] = c.prepared[e]->Score(*column.value, input);
        };
        nodes[terminal].dependents.push_back(nodes.size());
        if (col != Compiled::kNoParent) {
          nodes[stage_count + col].dependents.push_back(nodes.size());
        }
        nodes.push_back(std::move(dag_node));
      }
    }
  }

  std::vector<NodeResult> node_results;
  stats_.run_ms = TimeMs(
      [&] { node_results = ExecuteDag(nodes, c.spec.node_timeout_ms); });
  stats_.cache_hits = cache_hits.load(std::memory_order_relaxed);
  stats_.cache_misses = cache_misses.load(std::memory_order_relaxed);
  stats_.cache_read_retries = cache ? cache->read_retries() : 0;
  stats_.cache_evictions = cache ? cache->evictions() : 0;
  if (terminals != nullptr) {
    // Every consumer has finished, so the stores can leave the engine.
    // Distinct rows have distinct chain names, hence distinct terminal
    // nodes: each store moves at most once.
    terminals->clear();
    for (const Compiled::RowPlan& row : c.rows) {
      for (const std::size_t terminal : row.terminal) {
        terminals->push_back(node_results[terminal].status == NodeStatus::kOk
                                 ? std::move(outputs[terminal])
                                 : model::EventStore());
      }
    }
  }
  return assemble(node_results, results);
}

Report RunScenario(ScenarioSpec spec) {
  ScenarioEngine engine(std::move(spec));
  return engine.Run();
}

}  // namespace mobipriv::core
