// E8 — throughput of every mechanism and attack (google-benchmark).
//
// Publication pipelines run offline, but a practical tool must process
// metropolitan datasets in minutes. These microbenchmarks measure events/s
// for each mechanism, the POI attack, the mix-zone detector and the core
// geometric kernels, over growing dataset sizes.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "attacks/poi_extraction.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "attacks/reident.h"
#include "core/anonymizer.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "mechanisms/registry.h"
#include "geo/polyline.h"
#include "mechanisms/cloaking.h"
#include "mechanisms/geo_indistinguishability.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "mechanisms/wait4me.h"
#include "metrics/range_queries.h"
#include "metrics/spatial_distortion.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"
#include "synth/streaming_world.h"
#include "util/resource.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace {

using namespace mobipriv;

/// Shared worlds, built once per size (agents = size, 1 day).
const synth::SyntheticWorld& WorldOfSize(std::size_t agents) {
  static std::map<std::size_t, std::unique_ptr<synth::SyntheticWorld>> cache;
  auto it = cache.find(agents);
  if (it == cache.end()) {
    synth::PopulationConfig config;
    config.agents = agents;
    config.days = 1;
    config.seed = 9000 + agents;
    it = cache.emplace(agents,
                       std::make_unique<synth::SyntheticWorld>(config))
             .first;
  }
  return *it->second;
}

/// Attaches the benchmark's peak-RSS counter to a row (MB). Each row that
/// records it calls util::ResetPeakRss() first, so on Linux the value is
/// the VmHWM high-water mark since this benchmark function's last entry:
/// the RSS already resident then (shared worlds, allocator-retained
/// memory of earlier rows) plus this row's own peak. When the reset is
/// unavailable (`rss_reset` false: non-Linux, or a kernel that refuses)
/// the value is the process lifetime high-water mark instead, and the row
/// is labelled so. compare_bench.py prints these counters as an
/// informational (never gated) delta table.
void RecordPeakRss(benchmark::State& state, bool rss_reset) {
  state.counters["peak_rss_mb"] =
      static_cast<double>(util::PeakRssBytes()) / (1024.0 * 1024.0);
  if (!rss_reset) state.SetLabel("peak_rss_mb: process high-water mark");
}

template <typename MechanismT>
void RunMechanism(benchmark::State& state, const MechanismT& mechanism) {
  const auto& world = WorldOfSize(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  std::size_t events = 0;
  for (auto _ : state) {
    const model::Dataset out = mechanism.Apply(world.dataset(), rng);
    benchmark::DoNotOptimize(out.EventCount());
    events += world.dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void BM_FullPipeline(benchmark::State& state) {
  RunMechanism(state, core::Anonymizer{});
}
BENCHMARK(BM_FullPipeline)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Wait4Me(benchmark::State& state) {
  RunMechanism(state, mech::Wait4Me{});
}
BENCHMARK(BM_Wait4Me)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_PoiExtraction(benchmark::State& state) {
  const auto& world = WorldOfSize(static_cast<std::size_t>(state.range(0)));
  const attacks::PoiExtractor extractor;
  const geo::LocalProjection frame =
      attacks::DatasetProjection(world.dataset());
  std::size_t events = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(world.dataset(), frame));
    events += world.dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PoiExtraction)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Reident(benchmark::State& state) {
  const auto& world = WorldOfSize(static_cast<std::size_t>(state.range(0)));
  const geo::LocalProjection frame =
      attacks::DatasetProjection(world.dataset());
  const attacks::ReidentificationAttack attack;
  const auto profiles = attack.BuildProfiles(world.dataset(), frame);
  std::size_t events = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.Attack(profiles, world.dataset(), frame));
    events += world.dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Reident)->Arg(5)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

/// The range-query utility metric on the whole-view path: 200 queries
/// against the raw world and its geo-indistinguishable publication (index
/// build of both datasets + every count). Items are the events of both
/// sides.
void BM_RangeQueryError(benchmark::State& state) {
  const auto& world = WorldOfSize(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  const model::Dataset published =
      mech::GeoIndistinguishability{}.Apply(world.dataset(), rng);
  metrics::RangeQueryConfig config;
  config.query_count = 200;
  const auto queries = metrics::SampleQueries(world.dataset(), config, rng);
  std::size_t events = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::MeasureRangeQueryError(
        world.dataset(), published, queries));
    events += world.dataset().EventCount() + published.EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_RangeQueryError)->Arg(100)->Unit(benchmark::kMillisecond);

/// Spatial distortion of a world against its `gaussian` publication: the
/// per-user matching, the interpolation cursor, the pruned path scan and
/// the two summary sorts. Items are original fixes.
void BM_SpatialDistortion(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const auto& world = WorldOfSize(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  const model::EventStore published =
      mech::CreateMechanism("gaussian")->ApplyToStore(world.dataset(), rng);
  std::size_t events = 0;
  for (auto _ : state) {
    const metrics::DistortionSummary summary =
        metrics::MeasureDistortion(world.dataset(), published.View());
    benchmark::DoNotOptimize(summary.path_m.mean);
    events += world.dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_SpatialDistortion)->Arg(1000)->Unit(benchmark::kMillisecond);

/// The acceptance workload: full anonymization pipeline (speed smoothing +
/// mix zones) followed by the POI-extraction attack on the published data.
/// The Serial/Parallel pair measures the batch engine's scaling; outputs
/// are byte-identical between the two (see test_parallel_determinism).
void RunEndToEnd(benchmark::State& state, std::size_t parallelism) {
  const util::ScopedParallelism scope(parallelism);
  const auto& world = WorldOfSize(static_cast<std::size_t>(state.range(0)));
  const core::Anonymizer anonymizer;
  const attacks::PoiExtractor extractor;
  util::Rng rng(1);
  std::size_t events = 0;
  for (auto _ : state) {
    const model::Dataset published = anonymizer.Apply(world.dataset(), rng);
    benchmark::DoNotOptimize(extractor.Extract(published));
    events += world.dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void BM_EndToEndSerial(benchmark::State& state) { RunEndToEnd(state, 1); }
BENCHMARK(BM_EndToEndSerial)
    ->Arg(20)
    ->Arg(50)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndParallel(benchmark::State& state) {
  // 0 = restore the default (MOBIPRIV_THREADS or hardware concurrency).
  RunEndToEnd(state, 0);
}
BENCHMARK(BM_EndToEndParallel)
    ->Arg(20)
    ->Arg(50)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---- Ingestion throughput ---------------------------------------------------
// CSV bytes/s of the chunked parallel reader (BM_IngestCsv) against the
// streaming single-pass reader it replaced (BM_IngestCsvStreaming). The
// JSON output carries bytes_per_second, so BENCH_throughput.json tracks
// ingestion MB/s PR over PR.

/// CSV text of a world, built once per size (agents -> megabytes).
const std::string& CsvOfSize(std::size_t agents) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(agents);
  if (it == cache.end()) {
    std::ostringstream os;
    model::WriteCsv(WorldOfSize(agents).dataset(), os);
    it = cache.emplace(agents, os.str()).first;
  }
  return it->second;
}

void BM_IngestCsv(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const std::string& text = CsvOfSize(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const model::Dataset dataset = model::ReadCsvText(text);
    benchmark::DoNotOptimize(dataset.EventCount());
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_IngestCsv)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_IngestCsvSingleThread(benchmark::State& state) {
  const util::ScopedParallelism one(1);
  const std::string& text = CsvOfSize(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const model::Dataset dataset = model::ReadCsvText(text);
    benchmark::DoNotOptimize(dataset.EventCount());
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_IngestCsvSingleThread)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_IngestCsvStreaming(benchmark::State& state) {
  // The pre-refactor reader: the baseline the chunked path is scored
  // against (acceptance: >= 3x with 4 workers).
  const std::string& text = CsvOfSize(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::istringstream in(text);
    const model::Dataset dataset = model::ReadCsvStreaming(in);
    benchmark::DoNotOptimize(dataset.EventCount());
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_IngestCsvStreaming)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---- Columnar on-disk format (.mpc) ----------------------------------------
// The startup-cost ladder the format exists for: parse CSV every run
// (BM_IngestCsv), read a prebuilt columnar file (BM_ReadColumnar — owning,
// every checksum verified), or mmap it (BM_OpenColumnarMmap — zero-copy,
// lazily faulted; the acceptance bar is >= 10x over the CSV parse of the
// same data). All three process the same dataset, so wall times compare
// directly across rows of BENCH_throughput.json.

/// Prebuilt .mpc of a world, written once per size into the temp dir.
const std::string& ColumnarPathOfSize(std::size_t agents) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(agents);
  if (it == cache.end()) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("mobipriv_bench_" + std::to_string(agents) + ".mpc"))
            .string();
    model::WriteColumnar(
        model::EventStore::FromDataset(WorldOfSize(agents).dataset()), path);
    it = cache.emplace(agents, path).first;
  }
  return it->second;
}

void BM_WriteColumnar(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const model::EventStore store = model::EventStore::FromDataset(
      WorldOfSize(static_cast<std::size_t>(state.range(0))).dataset());
  const std::string path =
      (std::filesystem::temp_directory_path() / "mobipriv_bench_write.mpc")
          .string();
  std::size_t bytes = 0;
  for (auto _ : state) {
    model::WriteColumnar(store, path);
    bytes += static_cast<std::size_t>(std::filesystem::file_size(path));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  RecordPeakRss(state, rss_reset);
  std::filesystem::remove(path);
}
BENCHMARK(BM_WriteColumnar)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_ReadColumnar(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const std::string& path =
      ColumnarPathOfSize(static_cast<std::size_t>(state.range(0)));
  const auto file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(path));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const model::EventStore store = model::ReadColumnar(path);
    benchmark::DoNotOptimize(store.EventCount());
    bytes += file_bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_ReadColumnar)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_OpenColumnarMmap(benchmark::State& state) {
  // Open + build the whole-file DatasetView: what a pipeline run pays
  // before its first kernel touches a column. Pages fault lazily, so this
  // is metadata-decode cost, independent of the event count.
  const bool rss_reset = util::ResetPeakRss();
  const std::string& path =
      ColumnarPathOfSize(static_cast<std::size_t>(state.range(0)));
  std::size_t events = 0;
  for (auto _ : state) {
    const model::MappedColumnar mapped = model::MapColumnar(path);
    benchmark::DoNotOptimize(mapped.View().EventCount());
    events += mapped.EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_OpenColumnarMmap)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_OpenColumnarMmapVerified(benchmark::State& state) {
  // Same open with the column checksums verified: one sequential FNV pass
  // over the mapping (the untrusted-media open).
  const std::string& path =
      ColumnarPathOfSize(static_cast<std::size_t>(state.range(0)));
  const auto file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(path));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const model::MappedColumnar mapped =
        model::MapColumnar(path, {.verify_checksums = true});
    benchmark::DoNotOptimize(mapped.View().EventCount());
    bytes += file_bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_OpenColumnarMmapVerified)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---- Scenario engine: memoized grid vs independent runs --------------------
// The engine's acceptance workload: a grid of 6 mechanisms x 3 evaluators
// over a prebuilt `.mpc` world, mmap-fed (no full-dataset Materialize of
// the source). BM_EngineGrid runs it through the scenario engine, which
// applies each mechanism ONCE and fans its memoized output to every
// evaluator; BM_EngineGridIndependent runs the same grid the way the
// standalone benches used to — re-applying the mechanism for every
// (mechanism, evaluator) cell. The wall-clock gap is the memoization win
// (18 mechanism applications collapse to 6).

const std::vector<std::string>& GridMechanisms() {
  static const std::vector<std::string> mechanisms = {
      "speed_smoothing",   "geo_ind[eps=0.01]", "geo_ind[eps=0.1]",
      "cloaking",          "gaussian",          "downsampling"};
  return mechanisms;
}

const std::vector<std::string>& GridEvaluators() {
  // Linear-scan evaluators: the grid cost is then mechanism-dominated,
  // which is what the memoization claim is about (the engine runs M
  // mechanism applications where the independent pattern runs M x E).
  static const std::vector<std::string> evaluators = {
      "coverage", "trajectory_stats", "heatmap"};
  return evaluators;
}

void BM_EngineGrid(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const auto agents = static_cast<std::size_t>(state.range(0));
  const std::string& path = ColumnarPathOfSize(agents);
  std::size_t events = 0;
  for (auto _ : state) {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::ColumnarFile(path);
    spec.mechanisms = GridMechanisms();
    spec.evaluators = GridEvaluators();
    spec.seeds = {1};
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    benchmark::DoNotOptimize(report.rows().size());
    state.counters["mechanism_runs"] = static_cast<double>(
        engine.stats().mechanism_nodes);
    events += WorldOfSize(agents).dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_EngineGrid)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_EngineGridCached(benchmark::State& state) {
  // Same grid with the `.mpc` output cache on: iteration 1 spills every
  // mechanism output (cold), later iterations reuse them (warm) — the
  // cross-run reuse path. cache_hits/cache_misses counters accumulate
  // across iterations, so hits > 0 proves reuse happened in-run.
  const bool rss_reset = util::ResetPeakRss();
  const auto agents = static_cast<std::size_t>(state.range(0));
  const std::string& path = ColumnarPathOfSize(agents);
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("mobipriv_bench_mech_cache_" + std::to_string(agents)))
          .string();
  std::filesystem::remove_all(cache_dir);
  std::size_t events = 0;
  double hits = 0.0;
  double misses = 0.0;
  for (auto _ : state) {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::ColumnarFile(path);
    spec.mechanisms = GridMechanisms();
    spec.evaluators = GridEvaluators();
    spec.seeds = {1};
    spec.mechanism_cache_dir = cache_dir;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    benchmark::DoNotOptimize(report.rows().size());
    hits += static_cast<double>(engine.stats().cache_hits);
    misses += static_cast<double>(engine.stats().cache_misses);
    events += WorldOfSize(agents).dataset().EventCount();
  }
  state.counters["cache_hits"] = hits;
  state.counters["cache_misses"] = misses;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
  std::filesystem::remove_all(cache_dir);
}
BENCHMARK(BM_EngineGridCached)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_EngineGridIndependent(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const auto agents = static_cast<std::size_t>(state.range(0));
  const std::string& path = ColumnarPathOfSize(agents);
  std::size_t events = 0;
  for (auto _ : state) {
    const core::BoundSource source = core::BoundSource::Bind(
        core::DatasetSourceSpec::ColumnarFile(path));
    const geo::LocalProjection frame =
        attacks::DatasetProjection(source.view());
    for (const std::string& mechanism_spec : GridMechanisms()) {
      for (const std::string& evaluator_spec : GridEvaluators()) {
        const auto mechanism = mech::CreateMechanism(mechanism_spec);
        const std::string name = mechanism->Name();
        util::Rng rng(util::DeriveStreamSeed(
            1, model::Fnv1a64(name.data(), name.size()), 0));
        const model::EventStore published =
            mechanism->ApplyToStore(source.view(), rng);
        const auto evaluator = core::CreateEvaluator(evaluator_spec);
        const auto values = evaluator->Evaluate(
            {source.view(), published.View(), frame, 1});
        benchmark::DoNotOptimize(values.size());
      }
    }
    state.counters["mechanism_runs"] = static_cast<double>(
        GridMechanisms().size() * GridEvaluators().size());
    events += WorldOfSize(agents).dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_EngineGridIndependent)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_EngineGridChainShared(benchmark::State& state) {
  // Four 3-stage chain rows sharing a 2-stage prefix (the paper's sweep
  // shape: one pipeline, many final stages). The engine compiles one
  // node per distinct chain prefix, so the shared stages run once per
  // iteration instead of once per row — stage_reuses counts the sharing
  // (docs/FORMAT.md, "Chain prefixes and cache keys").
  const bool rss_reset = util::ResetPeakRss();
  const auto agents = static_cast<std::size_t>(state.range(0));
  const std::string& path = ColumnarPathOfSize(agents);
  std::size_t events = 0;
  for (auto _ : state) {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::ColumnarFile(path);
    spec.mechanisms = {
        "geo_ind[eps=0.05]|downsampling[dt=120]|mixzone[r=100m]",
        "geo_ind[eps=0.05]|downsampling[dt=120]|mixzone[r=200m]",
        "geo_ind[eps=0.05]|downsampling[dt=120]|cloaking",
        "geo_ind[eps=0.05]|downsampling[dt=120]|gaussian"};
    spec.evaluators = GridEvaluators();
    spec.seeds = {1};
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    benchmark::DoNotOptimize(report.rows().size());
    state.counters["mechanism_nodes"] =
        static_cast<double>(engine.stats().mechanism_nodes);
    state.counters["stage_reuses"] =
        static_cast<double>(engine.stats().stage_reuses);
    events += WorldOfSize(agents).dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_EngineGridChainShared)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_PublishGrid(benchmark::State& state) {
  // The publish command's engine shape (anonymize_csv --mechanism
  // ours[speed+mix,...] --evaluate poi_attack,certification,
  // spatial_distortion): one mechanism node and three evaluator nodes, so
  // every node runs on a pool worker and each kernel's ParallelFor fans
  // out from there. The argument is the thread count; wall time is the
  // measure (the calling thread only waits for the DAG).
  const bool rss_reset = util::ResetPeakRss();
  const util::ScopedParallelism scope(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kAgents = 1000;
  const std::string& path = ColumnarPathOfSize(kAgents);
  std::size_t events = 0;
  for (auto _ : state) {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::ColumnarFile(path);
    spec.mechanisms = {"ours[speed+mix,eps=100m,r=150m,w=600s]"};
    spec.evaluators = {"poi_attack", "certification", "spatial_distortion"};
    spec.seeds = {1};
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    benchmark::DoNotOptimize(report.rows().size());
    events += WorldOfSize(kAgents).dataset().EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_PublishGrid)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- SIMD kernels (roofline-annotated) --------------------------------------
// Each kernel bench sets BOTH counters so the JSON carries a roofline
// coordinate: items_per_second (elements/s) and bytes_per_second (the
// kernel's streamed traffic, counted per the attribution schema in
// bench/README.md — input columns read + output columns written, payload
// only). The simd_backend counter records which shim backend was compiled
// in, so an off/auto A-B run labels itself.

void AnnotateKernel(benchmark::State& state, std::size_t items,
                    std::size_t bytes) {
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["simd_backend"] =
      util::kSimdEnabled ? 1.0 : 0.0;  // 1 = vector ISA, 0 = scalar
}

void BM_MixZoneEncounterScan(benchmark::State& state) {
  // The encounter count only (flatten + projection + time-ordered cell
  // grid + the windowed count sweep): the vectorized hot loop of
  // BM_MixZone without zone placement, permutation or output assembly
  // diluting it.
  const auto& world = WorldOfSize(static_cast<std::size_t>(state.range(0)));
  const mech::MixZone mixzone;
  const model::DatasetView view = world.dataset();
  std::size_t events = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixzone.CountEncounters(view));
    events += world.dataset().EventCount();
  }
  // Traffic: reads lat/lng/time per event once during flatten+project;
  // the count sweep re-reads x/y slices (amortized ~1 extra pass).
  AnnotateKernel(state, events, events * 5 * sizeof(double));
}
BENCHMARK(BM_MixZoneEncounterScan)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

/// Mix-zone detection (MixZone::Detect: projection, the cell grid, the
/// encounter count, zone placement, passages and occurrences) on the world
/// `publish` mixes: `agents` agents, speed-smoothed at the default 100 m
/// spacing, the default r = 150 m and w = 600 s. Items are input events.
void BM_MixZoneDetect(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const auto& world = WorldOfSize(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  const model::EventStore smoothed =
      mech::CreateMechanism("speed_smoothing")
          ->ApplyToStore(world.dataset(), rng);
  const mech::MixZone mixzone;
  std::size_t events = 0;
  for (auto _ : state) {
    const mech::MixZoneReport report = mixzone.Detect(smoothed.View());
    benchmark::DoNotOptimize(report.encounters);
    events += smoothed.EventCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_MixZoneDetect)->Arg(900)->Unit(benchmark::kMillisecond);

// ---- ApplyToTraceColumns kernels, SoA in -> SoA out ------------------------
// The per-trace mechanism kernels measured on the columnar path they were
// vectorized for: EventStore view in, EventStore out, no AoS assembly on
// either side (BM_Cloaking et al. above measure the same mechanisms
// through the AoS Apply adapter, whose Dataset assembly dilutes kernel
// gains). items = input events; bytes = input columns read + output
// columns written (24 B/event each way, rounded by suppression).

const model::EventStore& StoreOfSize(std::size_t agents) {
  static std::map<std::size_t, std::unique_ptr<model::EventStore>> cache;
  auto it = cache.find(agents);
  if (it == cache.end()) {
    it = cache
             .emplace(agents, std::make_unique<model::EventStore>(
                                  model::EventStore::FromDataset(
                                      WorldOfSize(agents).dataset())))
             .first;
  }
  return *it->second;
}

template <typename MechanismT>
void RunKernelToStore(benchmark::State& state, const MechanismT& mechanism) {
  const auto agents = static_cast<std::size_t>(state.range(0));
  const model::EventStore& store = StoreOfSize(agents);
  util::Rng rng(1);
  std::size_t events = 0;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const model::EventStore out = mechanism.ApplyToStore(store.View(), rng);
    benchmark::DoNotOptimize(out.EventCount());
    events += store.EventCount();
    bytes += (store.EventCount() + out.EventCount()) * 3 * sizeof(double);
  }
  AnnotateKernel(state, events, bytes);
}

void BM_KernelCloaking(benchmark::State& state) {
  RunKernelToStore(state, mech::Cloaking{});
}
BENCHMARK(BM_KernelCloaking)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_KernelGeoInd(benchmark::State& state) {
  RunKernelToStore(state, mech::GeoIndistinguishability{});
}
BENCHMARK(BM_KernelGeoInd)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_KernelSpeedSmoothing(benchmark::State& state) {
  RunKernelToStore(state, mech::SpeedSmoothing{});
}
BENCHMARK(BM_KernelSpeedSmoothing)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_KernelMixZone(benchmark::State& state) {
  RunKernelToStore(state, mech::MixZone{});
}
BENCHMARK(BM_KernelMixZone)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_ResampleUniform(benchmark::State& state) {
  // A 1000-vertex zig-zag path resampled at 10 m.
  std::vector<geo::Point2> path;
  for (int i = 0; i < 1000; ++i) {
    path.push_back({static_cast<double>(i) * 37.0,
                    (i % 2 == 0) ? 0.0 : 25.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::ResampleUniform(path, 10.0));
  }
}
BENCHMARK(BM_ResampleUniform);

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    synth::PopulationConfig config;
    config.agents = static_cast<std::size_t>(state.range(0));
    config.days = 1;
    config.seed = 1;
    const synth::SyntheticWorld world(config);
    benchmark::DoNotOptimize(world.dataset().EventCount());
  }
}
BENCHMARK(BM_SyntheticGeneration)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

// ---- Out-of-core scale: streaming generation + shard-streamed grids --------
// The 10^6-agent path. BM_GenerateWorld streams a synthetic population
// straight into a sharded `.mpc` directory through per-shard appenders —
// the acceptance bar is peak RSS < 25% of the bytes written at 1M agents
// (run it filtered, in a fresh process, so ru_maxrss is this benchmark's).
// BM_EngineGridShardStream then executes a foldable grid over such a
// directory shard by shard (streamed_shards > 0) against
// BM_EngineGridShardWhole, the same grid forced down the whole-view bind:
// identical reports, one shard resident instead of all of them.

/// Streaming generation config of one bench size: sparse recording (the
/// million-agent sizing — 120 s fixes), 1 day, 16 shards.
synth::StreamingWorldConfig GenerateWorldConfig(std::size_t agents) {
  synth::StreamingWorldConfig config;
  config.population.agents = agents;
  config.population.days = 1;
  config.population.seed = 4242;
  config.population.simulator.sampling_interval_s = 120;
  config.shard_count = 16;
  return config;
}

void BM_GenerateWorld(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const auto agents = static_cast<std::size_t>(state.range(0));
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mobipriv_bench_genworld_" + std::to_string(agents) + ".shards"))
          .string();
  std::size_t events = 0;
  for (auto _ : state) {
    const synth::StreamingWorldStats stats =
        synth::GenerateShardedWorld(GenerateWorldConfig(agents), dir);
    benchmark::DoNotOptimize(stats.events);
    events += stats.events;
    state.counters["disk_mb"] =
        static_cast<double>(stats.bytes_written) / (1024.0 * 1024.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));  // rows/sec
  RecordPeakRss(state, rss_reset);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_GenerateWorld)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

/// Streaming-generated shard directory of a world, built once per size.
const std::string& ShardDirOfSize(std::size_t agents) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(agents);
  if (it == cache.end()) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("mobipriv_bench_sharddir_" + std::to_string(agents) + ".shards"))
            .string();
    synth::StreamingWorldConfig config;
    config.population.agents = agents;
    config.population.days = 1;
    config.population.seed = 9000 + agents;
    config.shard_count = 8;
    (void)synth::GenerateShardedWorld(config, dir);
    it = cache.emplace(agents, dir).first;
  }
  return it->second;
}

/// Event count of a shard directory from shard headers only (lazy maps,
/// no column pages touched — the count must not cost residency here).
std::size_t ShardDirEventCount(const std::string& dir) {
  const model::ShardManifest manifest = model::ReadShardManifest(dir);
  std::size_t events = 0;
  for (std::size_t s = 0; s < manifest.shard_count; ++s) {
    events += model::MapColumnar(model::ShardDataPath(dir, s)).EventCount();
  }
  return events;
}

/// The foldable grid both shard benches run: single-stage per-trace
/// mechanisms x foldable evaluators (the streamed-path precondition).
core::ScenarioSpec ShardGridSpec(const std::string& dir) {
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.mechanisms = GridMechanisms();
  spec.evaluators = {"trajectory_stats", "range_queries[n=32]"};
  spec.seeds = {1};
  return spec;
}

void BM_EngineGridShardStream(benchmark::State& state) {
  const bool rss_reset = util::ResetPeakRss();
  const auto agents = static_cast<std::size_t>(state.range(0));
  const std::string& dir = ShardDirOfSize(agents);
  const std::size_t dir_events = ShardDirEventCount(dir);
  std::size_t events = 0;
  for (auto _ : state) {
    core::ScenarioEngine engine(ShardGridSpec(dir));
    const core::Report report = engine.Run();
    benchmark::DoNotOptimize(report.rows().size());
    state.counters["streamed_shards"] =
        static_cast<double>(engine.stats().streamed_shards);
    events += dir_events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_EngineGridShardStream)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_EngineGridShardWhole(benchmark::State& state) {
  // Whole-view control: an (idle) watchdog disqualifies streaming without
  // changing any result, so this row is the same grid over the same bytes
  // with every shard resident at once.
  const bool rss_reset = util::ResetPeakRss();
  const auto agents = static_cast<std::size_t>(state.range(0));
  const std::string& dir = ShardDirOfSize(agents);
  const std::size_t dir_events = ShardDirEventCount(dir);
  std::size_t events = 0;
  for (auto _ : state) {
    core::ScenarioSpec spec = ShardGridSpec(dir);
    spec.node_timeout_ms = 1e9;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    benchmark::DoNotOptimize(report.rows().size());
    events += dir_events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  RecordPeakRss(state, rss_reset);
}
BENCHMARK(BM_EngineGridShardWhole)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
