// Traced replay driver of the repository benchmark (perfbench/README.md).
//
//   perfbench_driver events FILE.mpc
//       Prints "<events> <traces>" of a columnar file opened through
//       model::MapColumnar (the output check of the publish workload).
//
//   perfbench_driver trace --workload W --work DIR --world-seed N
//       --run-seed N --agents A --shards S --threads T --spans OUT.json
//       [--mechanism SPEC --evaluate LIST]          (publish)
//       Replays workload W over the inputs run.py prepared in DIR. Every
//       call the driver makes into a library layer runs inside a span, and
//       engine runs go through traced registry wrappers, so the engine's
//       own mechanism and evaluator calls become child spans too. Spans
//       stay in memory and are written once, at the end, as Chrome Trace
//       Event JSON. The last stdout line is one JSON object:
//       {"metrics": {...}, "checks": N, "failures": [...]}.
//
// Span names are "<layer>.<component>.<operation>", with the layers named
// after the library's modules (synth, model, mechanisms, metrics, attacks,
// privacy, core). A metric "<span>_s" is the summed duration of the spans
// of that name; "<layer>.self_s" is the layer's time minus the part its
// child spans cover.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/anonymizer.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/output_cache.h"
#include "core/scenario.h"
#include "core/shard_exec.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/registry.h"
#include "mechanisms/speed_smoothing.h"
#include "model/columnar_file.h"
#include "model/sharded_dataset.h"
#include "synth/streaming_world.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/spec.h"
#include "util/thread_pool.h"

namespace {

using namespace mobipriv;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- Spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t shard = -1;  ///< shard index for per-shard spans
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;
};

std::mutex g_spans_mutex;
std::vector<Span> g_spans;  // guarded by g_spans_mutex
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{0};
// Parent of spans opened on a thread with no open span of its own: set
// while an engine run is in flight, so spans its pool threads open inside
// the registry wrappers hang under that run.
std::atomic<std::uint64_t> g_ambient_parent{0};
thread_local std::vector<std::uint64_t> t_open;
thread_local const std::uint32_t t_tid = g_next_tid.fetch_add(1);
const Clock::time_point g_epoch = Clock::now();

/// Records one span from construction to destruction.
class Scope {
 public:
  explicit Scope(std::string name, std::int64_t shard = -1) {
    span_.name = std::move(name);
    span_.shard = shard;
    span_.id = g_next_id.fetch_add(1);
    span_.parent = t_open.empty() ? g_ambient_parent.load() : t_open.back();
    span_.tid = t_tid;
    t_open.push_back(span_.id);
    span_.start = Clock::now();
  }
  ~Scope() {
    span_.end = Clock::now();
    t_open.pop_back();
    const std::lock_guard<std::mutex> lock(g_spans_mutex);
    g_spans.push_back(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Span span_;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---- Counters --------------------------------------------------------------

std::mutex g_counts_mutex;
std::map<std::string, double> g_counts;  // guarded by g_counts_mutex

void Count(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(g_counts_mutex);
  g_counts[name] += value;
}

std::vector<std::string> g_failures;
std::size_t g_checks = 0;

void Check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) g_failures.push_back(what);
}

std::uint64_t FileBytes(const fs::path& path) {
  std::error_code ec;
  const std::uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

std::uint64_t DirBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += FileBytes(entry.path());
  }
  return total;
}

// ---- Traced registry wrappers ----------------------------------------------

std::string LayerOfEvaluator(const std::string& base) {
  if (base == "poi_attack" || base == "reident" || base == "home_work") {
    return "attacks";
  }
  if (base == "certification" || base == "uncertainty") return "privacy";
  return "metrics";
}

class TracedMechanism final : public mech::Mechanism {
 public:
  TracedMechanism(std::shared_ptr<const mech::Mechanism> inner,
                  std::string span)
      : inner_(std::move(inner)), span_(std::move(span)) {}

  [[nodiscard]] std::string Name() const override { return inner_->Name(); }
  [[nodiscard]] model::Dataset Apply(const model::Dataset& input,
                                     util::Rng& rng) const override {
    const Scope scope(span_);
    return inner_->Apply(input, rng);
  }
  [[nodiscard]] model::EventStore ApplyToStore(
      const model::DatasetView& input, util::Rng& rng) const override {
    const Scope scope(span_);
    if (const auto* mixzone = dynamic_cast<const mech::MixZone*>(inner_.get())) {
      mech::MixZoneReport report;
      model::EventStore out = mixzone->ApplyToStoreWithReport(input, rng, report);
      Count("mixzone.encounters", static_cast<double>(report.encounters));
      Count("mixzone.occurrences", static_cast<double>(report.occurrences));
      Count("mixzone.swaps_applied", static_cast<double>(report.swaps_applied));
      Count("mixzone.suppressed", static_cast<double>(report.suppressed_events));
      Count("mixzone.total", static_cast<double>(report.total_events));
      return out;
    }
    return inner_->ApplyToStore(input, rng);
  }

 private:
  std::shared_ptr<const mech::Mechanism> inner_;
  std::string span_;
};

class TracedFold final : public core::TraceFold {
 public:
  TracedFold(std::unique_ptr<core::TraceFold> inner, std::string span)
      : inner_(std::move(inner)), span_(std::move(span)) {}
  void AccumulateShard(const core::ShardSlice& slice) override {
    const Scope scope(span_);
    inner_->AccumulateShard(slice);
  }
  [[nodiscard]] std::vector<core::MetricValue> Finalize() override {
    const Scope scope(span_);
    return inner_->Finalize();
  }

 private:
  std::unique_ptr<core::TraceFold> inner_;
  std::string span_;
};

class TracedEvaluator final : public core::Evaluator {
 public:
  TracedEvaluator(std::shared_ptr<const core::Evaluator> inner,
                  std::string prefix)
      : inner_(std::move(inner)), prefix_(std::move(prefix)) {}

  [[nodiscard]] std::string Name() const override { return inner_->Name(); }
  [[nodiscard]] std::vector<core::MetricValue> Evaluate(
      const core::EvalInput& input) const override {
    const Scope scope(prefix_ + ".eval");
    return inner_->Evaluate(input);
  }
  [[nodiscard]] std::unique_ptr<core::TraceFold> MakeTraceFold(
      std::uint64_t seed) const override {
    std::unique_ptr<core::TraceFold> fold = inner_->MakeTraceFold(seed);
    if (!fold) return nullptr;
    return std::make_unique<TracedFold>(std::move(fold), prefix_ + ".fold");
  }

 private:
  std::shared_ptr<const core::Evaluator> inner_;
  std::string prefix_;
};

/// Re-registers the bases of `mechanisms` (chains split into stages) and
/// `evaluators` with factories that return traced wrappers. Each wrapper
/// shares a prototype built by the library's own factory before the
/// replacement, keyed by canonical spec text, so the wrapped engine
/// computes exactly what the untraced one does. Per-trace mechanisms that
/// the shard-streamed executor needs unwrapped are left out by passing an
/// empty `mechanisms`.
void InstallTracedRegistry(const std::vector<std::string>& mechanisms,
                           const std::vector<std::string>& evaluators) {
  using MechProtos =
      std::map<std::string, std::shared_ptr<const mech::Mechanism>>;
  using EvalProtos =
      std::map<std::string, std::shared_ptr<const core::Evaluator>>;
  std::map<std::string, MechProtos> mech_protos;
  std::map<std::string, EvalProtos> eval_protos;
  for (const std::string& text : mechanisms) {
    const util::SpecChain chain = util::SpecChain::Parse(text);
    for (const util::Spec& stage : chain.stages()) {
      mech_protos[stage.base()][stage.ToString()] =
          mech::CreateMechanism(stage.ToString());
    }
  }
  for (const std::string& text : evaluators) {
    const util::Spec spec = util::Spec::Parse(text);
    eval_protos[spec.base()][spec.ToString()] = core::CreateEvaluator(text);
  }
  for (auto& [base, protos] : mech_protos) {
    mech::RegisterMechanism(
        base, [base, protos](const util::Spec& spec)
                  -> std::unique_ptr<mech::Mechanism> {
          const auto it = protos.find(spec.ToString());
          if (it == protos.end()) {
            throw util::SpecError("perfbench: no traced prototype for " +
                                  spec.ToString());
          }
          return std::make_unique<TracedMechanism>(
              it->second, "mechanisms." + base + ".apply");
        });
  }
  for (auto& [base, protos] : eval_protos) {
    core::RegisterEvaluator(
        base, [base, protos](const util::Spec& spec)
                  -> std::unique_ptr<core::Evaluator> {
          const auto it = protos.find(spec.ToString());
          if (it == protos.end()) {
            throw util::SpecError("perfbench: no traced prototype for " +
                                  spec.ToString());
          }
          return std::make_unique<TracedEvaluator>(
              it->second, LayerOfEvaluator(base) + "." + base);
        });
  }
}

// ---- Engine runs -----------------------------------------------------------

struct EngineRun {
  std::string rendered;  ///< the report as the CLI prints it
  core::EngineStats stats;
  double seconds = 0.0;  ///< construction + Run, tracing off or on
};

/// Runs `spec` untraced twice (a warm-up, then timed) and once through the
/// traced registry (the order matters: installing the wrappers replaces
/// library factories), checks that the reports are byte-identical and
/// every row is ok, and records traced minus untraced time as the tracing
/// overhead.
EngineRun RunEngineUntracedThenTraced(
    const core::ScenarioSpec& spec,
    const std::vector<std::string>& traced_mechanisms, bool as_table,
    const std::function<void()>& before_each_run) {
  const auto render = [as_table](const core::Report& report) {
    return as_table ? report.ToTable().ToString() : report.ToCsv();
  };
  std::string untraced;
  double untraced_s = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    before_each_run();
    const Clock::time_point start = Clock::now();
    core::ScenarioEngine engine(spec);
    untraced = render(engine.Run());
    untraced_s = Seconds(Clock::now() - start);
  }

  InstallTracedRegistry(traced_mechanisms, spec.evaluators);
  before_each_run();
  EngineRun run;
  const Clock::time_point traced_start = Clock::now();
  core::Report report;
  {
    const Scope scope("core.engine.run");
    g_ambient_parent.store(scope.id());
    core::ScenarioEngine engine(spec);
    report = engine.Run();
    run.stats = engine.stats();
    g_ambient_parent.store(0);
  }
  run.seconds = Seconds(Clock::now() - traced_start);
  {
    const Scope scope("core.report.render");
    run.rendered = render(report);
  }
  Check(report.AllOk(), "traced engine report has non-ok rows");
  Check(run.rendered == untraced,
        "traced and untraced engine reports differ");
  Count("trace.overhead_s", run.seconds - untraced_s);
  Count("core.engine.mechanism_nodes",
        static_cast<double>(run.stats.mechanism_nodes));
  Count("core.engine.stage_reuses",
        static_cast<double>(run.stats.stage_reuses));
  Count("core.engine.streamed_shards",
        static_cast<double>(run.stats.streamed_shards));
  return run;
}

// ---- Workload replays ------------------------------------------------------

struct Options {
  std::string workload;
  fs::path work;
  std::uint64_t world_seed = 0;
  std::uint64_t run_seed = 0;
  std::size_t agents = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::string mechanism;
  std::string evaluate;
  std::string spans;
};

util::Rng NodeRng(std::uint64_t seed, const std::string& name,
                  std::uint64_t index = 0) {
  return util::Rng(util::DeriveStreamSeed(
      seed, model::Fnv1a64(name.data(), name.size()), index));
}

/// Times world generation (the set-up's synth layer) into a scratch
/// directory and checks it matches the world the workload reads.
void ReplayGenerate(const Options& o, std::size_t expected_events) {
  synth::StreamingWorldConfig config;
  config.population.agents = o.agents;
  config.population.days = 1;
  config.population.seed = o.world_seed;
  config.shard_count = o.shards;
  const fs::path dir = o.work / "trace_world";
  synth::StreamingWorldStats stats;
  {
    const Scope scope("synth.generate");
    stats = synth::GenerateShardedWorld(config, dir.string());
  }
  Check(stats.events == expected_events,
        "regenerated world has " + std::to_string(stats.events) +
            " events, the workload input " + std::to_string(expected_events));
  fs::remove_all(dir);
}

void ReplayPublish(const Options& o) {
  const std::string world = (o.work / "world").string();
  std::optional<core::BoundSource> source;
  {
    const Scope scope("model.bind");
    source.emplace(core::BoundSource::Bind(
        core::DatasetSourceSpec::ShardDir(world)));
  }
  ReplayGenerate(o, source->view().EventCount());

  // The publish step of anonymize_csv, split at its two stages: ours is
  // speed smoothing followed by mix zones on the smoothed store, drawing
  // from one stream seeded like the CLI's.
  const auto ours = mech::CreateMechanism(o.mechanism);
  const auto* anonymizer = dynamic_cast<const core::Anonymizer*>(ours.get());
  if (anonymizer == nullptr ||
      !anonymizer->config().enable_speed_smoothing ||
      !anonymizer->config().enable_mixzones) {
    throw std::runtime_error("publish expects ours[speed+mix], got " +
                             o.mechanism);
  }
  const mech::SpeedSmoothing speed(anonymizer->config().speed);
  const mech::MixZone mixzone(anonymizer->config().mixzone);
  util::Rng rng = NodeRng(o.run_seed, ours->Name());
  model::EventStore published;
  model::EventStore smoothed;
  mech::MixZoneReport report;
  {
    const Scope scope("mechanisms.ours.apply");
    {
      const Scope stage("mechanisms.speed_smoothing.apply");
      smoothed = speed.ApplyToStore(source->view(), rng);
    }
    Count("mechanisms.speed_smoothing.events_in",
          static_cast<double>(source->view().EventCount()));
    Count("mechanisms.speed_smoothing.events_out",
          static_cast<double>(smoothed.EventCount()));
    {
      const Scope stage("mechanisms.mixzone.apply");
      published = mixzone.ApplyToStoreWithReport(smoothed.View(), rng, report);
    }
    Count("mixzone.encounters", static_cast<double>(report.encounters));
    Count("mixzone.occurrences", static_cast<double>(report.occurrences));
    Count("mixzone.swaps_applied", static_cast<double>(report.swaps_applied));
    Count("mixzone.suppressed", static_cast<double>(report.suppressed_events));
    Count("mixzone.total", static_cast<double>(report.total_events));
  }
  // The detector's co-location scan on its own (MixZone::CountEncounters),
  // outside ours: it is the part of the mix-zone stage that grows with
  // encounter density.
  std::size_t encounters = 0;
  {
    const Scope scope("mechanisms.mixzone.encounter_scan");
    encounters = mixzone.CountEncounters(smoothed.View());
  }
  Check(encounters == report.encounters,
        "encounter scan disagrees with the mix-zone report");
  const fs::path written = o.work / "trace_pub.mpc";
  {
    const Scope scope("model.write");
    model::WriteColumnar(published, written.string());
  }
  Count("model.write_bytes", static_cast<double>(FileBytes(written)));
  fs::remove(written);

  // The replayed publication is the file the CLI wrote, byte for byte in
  // content.
  const model::MappedColumnar cli_output =
      model::MapColumnar((o.work / "pub.mpc").string());
  Check(core::OutputCache::FingerprintView(published.View()) ==
            core::OutputCache::FingerprintView(cli_output.View()),
        "replayed publication differs from the CLI's pub.mpc");

  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::ShardDir(world);
  spec.mechanisms = {o.mechanism};
  for (std::string& piece : util::SplitTopLevel(o.evaluate, ',')) {
    if (!piece.empty()) spec.evaluators.push_back(std::move(piece));
  }
  spec.seeds = {o.run_seed};
  spec.threads = o.threads;
  RunEngineUntracedThenTraced(spec, spec.mechanisms, /*as_table=*/true,
                              [] {});
}

void ReplayStreamGrid(const Options& o) {
  core::ScenarioSpec spec =
      core::LoadSweepConfig((o.work / "grid.cfg").string());
  spec.workers = 2;
  const std::string world = spec.source.path;
  std::optional<core::ShardStreamPlan> plan;
  {
    const Scope scope("model.bind");
    plan = core::ProbeShardStream(world);
  }
  if (!plan) throw std::runtime_error("not a streamable shard dir: " + world);
  ReplayGenerate(o, [&] {
    std::size_t events = 0;
    for (std::size_t s = 0; s < plan->shard_count; ++s) {
      events += model::MapColumnar(model::ShardDataPath(world, s)).EventCount();
    }
    return events;
  }());

  // Per-shard kernels, the work the streamed executor does per shard.
  std::vector<std::pair<std::string, std::unique_ptr<mech::Mechanism>>> mechs;
  for (const std::string& text : spec.mechanisms) {
    mechs.emplace_back(util::Spec::Parse(text).base(),
                       mech::CreateMechanism(text));
  }
  for (std::size_t s = 0; s < plan->shard_count; ++s) {
    model::MappedColumnar mapped;
    {
      const Scope scope("model.shard_map", static_cast<std::int64_t>(s));
      mapped = model::MapColumnar(model::ShardDataPath(world, s));
    }
    for (const auto& [base, mechanism] : mechs) {
      util::Rng rng = NodeRng(spec.seeds[0], mechanism->Name(), s);
      model::EventStore out;
      {
        const Scope scope("mechanisms." + base + ".apply",
                          static_cast<std::int64_t>(s));
        out = mechanism->ApplyToStore(mapped.View(), rng);
      }
      if (base == "speed_smoothing") {
        Count("mechanisms.speed_smoothing.events_in",
              static_cast<double>(mapped.EventCount()));
        Count("mechanisms.speed_smoothing.events_out",
              static_cast<double>(out.EventCount()));
      }
    }
  }

  {
    // One supervised multi-process pass over every stage, as the engine
    // issues it.
    std::vector<core::ShardStageTask> tasks;
    for (std::size_t i = 0; i < mechs.size(); ++i) {
      core::ShardStageTask task;
      task.spec_text = spec.mechanisms[i];
      task.prefix_name = mechs[i].second->Name();
      task.stem = "stage-" + std::to_string(i);
      task.seed = spec.seeds[0];
      tasks.push_back(std::move(task));
    }
    core::ShardExecOptions exec;
    exec.worker_binary = core::DefaultWorkerBinary();
    exec.workers = spec.workers;
    core::ShardExecStats stats;
    const fs::path out_dir = o.work / "trace_exec";
    fs::create_directories(out_dir);
    std::vector<core::ShardStageOutcome> outcomes;
    {
      const Scope scope("core.shard_exec");
      outcomes = core::RunShardStagesMultiProcess(*plan, tasks,
                                                  out_dir.string(), exec,
                                                  &stats);
    }
    for (const core::ShardStageOutcome& outcome : outcomes) {
      Check(outcome.ok, "worker stage failed: " + outcome.error);
    }
    Count("core.shard_exec.workers_spawned",
          static_cast<double>(stats.workers_spawned));
    Count("core.shard_exec.worker_restarts",
          static_cast<double>(stats.worker_restarts));
    Count("core.shard_exec.worker_failures",
          static_cast<double>(stats.worker_failures));
    Count("core.shard_exec.result_bytes",
          static_cast<double>(DirBytes(out_dir)));
    fs::remove_all(out_dir);
  }

  // Mechanisms stay unwrapped: the streamed executor only takes
  // per-trace mechanisms. The evaluators' folds are traced.
  const EngineRun run =
      RunEngineUntracedThenTraced(spec, {}, /*as_table=*/false, [] {});
  Check(run.stats.streamed_shards == plan->shard_count,
        "the grid did not take the shard-streamed path");
  Check(run.stats.workers_spawned == spec.workers, "unexpected worker count");
}

void ReplayChainCache(const Options& o) {
  const core::ScenarioSpec spec =
      core::LoadSweepConfig((o.work / "chain.cfg").string());
  const fs::path cache_dir = spec.mechanism_cache_dir;
  const fs::path seeded = o.work / "cache.seed";
  const auto restore_cache = [&] {
    fs::remove_all(cache_dir);
    fs::copy(seeded, cache_dir, fs::copy_options::recursive);
  };
  std::optional<core::BoundSource> source;
  {
    const Scope scope("model.bind");
    source.emplace(core::BoundSource::Bind(spec.source));
  }
  ReplayGenerate(o, source->view().EventCount());

  const EngineRun run = RunEngineUntracedThenTraced(
      spec, spec.mechanisms, /*as_table=*/false, restore_cache);
  const core::EngineStats& st = run.stats;
  Count("core.output_cache.hits", static_cast<double>(st.cache_hits));
  Count("core.output_cache.misses", static_cast<double>(st.cache_misses));
  Count("core.output_cache.evictions",
        static_cast<double>(st.cache_evictions));
  Count("core.output_cache.read_retries",
        static_cast<double>(st.cache_read_retries));

  // Cache I/O as the engine does it, replayed over the same entries: read
  // the seeded prefix entries, recompute them (what a miss would cost),
  // and spill the entries the run added into a fresh cache.
  core::OutputCache cache(cache_dir);
  const std::uint64_t fingerprint =
      core::OutputCache::FingerprintView(source->view());
  const std::uint64_t seed = spec.seeds[0];
  const auto prefixes_of = [](const std::string& chain) {
    std::vector<std::pair<std::string, std::string>> out;  // (text, name)
    std::string name;
    for (const std::string& stage : util::SplitTopLevel(chain, '|')) {
      name += (name.empty() ? "" : "|") + mech::CreateMechanism(stage)->Name();
      out.emplace_back(stage, name);
    }
    return out;
  };
  const auto key_of = [&](const std::string& prefix_name) {
    return core::OutputCache::KeyText(prefix_name, fingerprint, seed);
  };
  const auto entry_bytes = [](const fs::path& dir, const std::string& key) {
    const std::string stem = core::OutputCache::Stem(key);
    return FileBytes(dir / (stem + ".mpc")) + FileBytes(dir / (stem + ".key"));
  };

  const auto shared = prefixes_of(spec.mechanisms.front());
  std::vector<model::EventStore> loaded(shared.size() - 1);
  for (std::size_t k = 0; k + 1 < shared.size(); ++k) {
    const std::string key = key_of(shared[k].second);
    bool hit = false;
    {
      const Scope scope("core.output_cache.read");
      hit = cache.TryLoad(key, loaded[k]);
    }
    Check(hit, "seeded cache entry missing: " + shared[k].second);
    Count("core.output_cache.bytes_read",
          static_cast<double>(entry_bytes(seeded, key)));
  }
  {
    const Scope scope("core.output_cache.recompute");
    model::EventStore previous;
    for (std::size_t k = 0; k + 1 < shared.size(); ++k) {
      util::Rng rng = NodeRng(seed, shared[k].second);
      const auto stage = mech::CreateMechanism(shared[k].first);
      model::EventStore out = stage->ApplyToStore(
          k == 0 ? source->view() : previous.View(), rng);
      Check(core::OutputCache::FingerprintView(out.View()) ==
                core::OutputCache::FingerprintView(loaded[k].View()),
            "recomputed prefix differs from its cache entry: " +
                shared[k].second);
      previous = std::move(out);
    }
  }
  const fs::path spill_dir = o.work / "trace_spill";
  fs::remove_all(spill_dir);
  core::OutputCache spill(spill_dir);
  for (const std::string& chain : spec.mechanisms) {
    const std::string key = key_of(prefixes_of(chain).back().second);
    model::EventStore store;
    Check(cache.TryLoad(key, store), "run did not spill " + chain);
    {
      const Scope scope("core.output_cache.spill");
      spill.Store(key, store);
    }
    Count("core.output_cache.bytes_written",
          static_cast<double>(entry_bytes(cache_dir, key)));
  }
  fs::remove_all(spill_dir);
}

// ---- Metrics from spans ----------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Duration of `span` minus the part of it covered by its children.
double SelfSeconds(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
  for (const Span* child : children) {
    const auto lo = std::max(child->start, span.start);
    const auto hi = std::min(child->end, span.end);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  Clock::duration busy{0};
  Clock::time_point reach = span.start;
  for (const auto& [lo, hi] : covered) {
    const auto from = std::max(lo, reach);
    if (hi > from) {
      busy += hi - from;
      reach = hi;
    }
  }
  return Seconds(span.end - span.start - busy);
}

std::map<std::string, double> Metrics() {
  std::map<std::string, double> m;
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, std::vector<double>> shard_durations;
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : g_spans) {
    const double d = Seconds(span.end - span.start);
    durations[span.name].push_back(d);
    if (span.shard >= 0) shard_durations[span.name].push_back(d);
    children[span.parent].push_back(&span);
  }
  const auto total = [&](const std::string& name) {
    double sum = 0.0;
    for (double d : durations[name]) sum += d;
    return sum;
  };
  const auto count = [](const std::string& name) {
    const auto it = g_counts.find(name);
    return it == g_counts.end() ? 0.0 : it->second;
  };

  for (const char* name :
       {"synth.generate", "model.bind", "model.write",
        "mechanisms.mixzone.apply", "mechanisms.mixzone.encounter_scan",
        "mechanisms.speed_smoothing.apply", "mechanisms.ours.apply",
        "attacks.poi_attack.eval", "privacy.certification.eval",
        "metrics.spatial_distortion.eval", "metrics.coverage.eval",
        "metrics.range_queries.fold", "metrics.trajectory_stats.fold",
        "core.engine.run", "core.output_cache.read",
        "core.output_cache.spill", "core.output_cache.recompute",
        "core.report.render"}) {
    m[std::string(name) + "_s"] = total(name);
  }
  m["core.shard_exec.s"] = total("core.shard_exec");
  m["model.shard_map_s.p50"] = Percentile(durations["model.shard_map"], 0.5);
  m["model.shard_map_s.p90"] = Percentile(durations["model.shard_map"], 0.9);
  for (const char* base : {"geo_ind", "cloaking", "speed_smoothing"}) {
    const auto& d = shard_durations["mechanisms." + std::string(base) + ".apply"];
    const std::string prefix = "mechanisms.per_trace." + std::string(base);
    m[prefix + ".shard_s.p50"] = Percentile(d, 0.5);
    m[prefix + ".shard_s.p90"] = Percentile(d, 0.9);
  }
  m["mechanisms.ours.applications"] =
      static_cast<double>(durations["mechanisms.ours.apply"].size());
  for (const char* name : {"encounters", "occurrences", "swaps_applied"}) {
    m["mechanisms.mixzone." + std::string(name)] =
        count("mixzone." + std::string(name));
  }
  m["mechanisms.mixzone.suppression_ratio"] =
      count("mixzone.total") > 0
          ? count("mixzone.suppressed") / count("mixzone.total")
          : 0.0;
  const double hits = count("core.output_cache.hits");
  const double misses = count("core.output_cache.misses");
  m["core.output_cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["core.output_cache.saved_s"] =
      m["core.output_cache.recompute_s"] - m["core.output_cache.read_s"];

  std::map<std::string, double> layer_self;
  for (const char* layer : {"synth", "model", "mechanisms", "metrics",
                            "attacks", "privacy", "core"}) {
    layer_self[layer] = 0.0;
  }
  for (const Span& span : g_spans) {
    const std::string layer = span.name.substr(0, span.name.find('.'));
    const double self = SelfSeconds(span, children[span.id]);
    layer_self[layer] += self;
    if (span.name == "core.engine.run") m["core.engine.self_s"] += self;
  }
  for (const auto& [layer, self] : layer_self) m[layer + ".self_s"] = self;
  for (const auto& [name, value] : g_counts) {
    if (name.rfind("mixzone.", 0) != 0) m[name] = value;
  }
  return m;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Chrome Trace Event JSON ("X" complete events, microseconds), loadable in
/// Perfetto and chrome://tracing.
void WriteSpans(const std::string& path) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const long pid = static_cast<long>(::getpid());
  bool first = true;
  for (const Span& span : g_spans) {
    const double ts =
        std::chrono::duration<double, std::micro>(span.start - g_epoch).count();
    const double dur =
        std::chrono::duration<double, std::micro>(span.end - span.start).count();
    out << (first ? "" : ",") << "\n{\"name\":" << JsonString(span.name)
        << ",\"cat\":" << JsonString(span.name.substr(0, span.name.find('.')))
        << ",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << span.tid
        << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"id\":"
        << span.id << ",\"parent\":" << span.parent;
    if (span.shard >= 0) out << ",\"shard\":" << span.shard;
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

int Trace(int argc, char** argv) {
  util::CliParser cli("perfbench traced replay driver");
  cli.AddOption("workload", "publish|stream_grid_workers|chain_cache", "");
  cli.AddOption("work", "directory run.py prepared", "");
  cli.AddOption("world-seed", "seed the world was generated with", "0");
  cli.AddOption("run-seed", "seed of the publish run", "0");
  cli.AddOption("agents", "agents of the generated world", "0");
  cli.AddOption("shards", "shards of the generated world", "8");
  cli.AddOption("mechanism", "publish: mechanism spec", "");
  cli.AddOption("evaluate", "publish: evaluator list", "");
  cli.AddOption("spans", "Chrome Trace Event JSON output", "spans.json");
  cli.AddOption("threads", "worker threads of every engine run", "2");
  if (!cli.Parse(argc, argv)) return 2;
  Options o;
  o.workload = cli.GetString("workload");
  o.work = cli.GetString("work");
  o.world_seed = static_cast<std::uint64_t>(cli.GetInt("world-seed"));
  o.run_seed = static_cast<std::uint64_t>(cli.GetInt("run-seed"));
  o.agents = static_cast<std::size_t>(cli.GetInt("agents"));
  o.shards = static_cast<std::size_t>(cli.GetInt("shards"));
  o.mechanism = cli.GetString("mechanism");
  o.evaluate = cli.GetString("evaluate");
  o.spans = cli.GetString("spans");
  o.threads = static_cast<std::size_t>(cli.GetInt("threads"));
  util::SetParallelismLevel(o.threads);

  if (o.workload == "publish") {
    ReplayPublish(o);
  } else if (o.workload == "stream_grid_workers") {
    ReplayStreamGrid(o);
  } else if (o.workload == "chain_cache") {
    ReplayChainCache(o);
  } else {
    std::cerr << "unknown workload '" << o.workload << "'\n";
    return 2;
  }
  WriteSpans(o.spans);

  std::ostringstream line;
  line.precision(17);
  line << "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : Metrics()) {
    line << (first ? "" : ",") << JsonString(name) << ":" << value;
    first = false;
  }
  line << "},\"checks\":" << g_checks << ",\"failures\":[";
  for (std::size_t i = 0; i < g_failures.size(); ++i) {
    line << (i ? "," : "") << JsonString(g_failures[i]);
  }
  line << "]}";
  std::cout << line.str() << std::endl;
  return 0;
}

int Events(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: perfbench_driver events FILE.mpc\n";
    return 2;
  }
  const model::MappedColumnar mapped = model::MapColumnar(argv[2]);
  std::cout << mapped.EventCount() << " " << mapped.TraceCount() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "events") return Events(argc, argv);
    if (mode == "trace") return Trace(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench_driver events FILE.mpc | trace --workload W ...\n";
  return 2;
}
