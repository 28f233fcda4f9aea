#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "attacks/poi_extraction.h"
#include "core/evaluator.h"
#include "core/output_cache.h"
#include "core/scenario.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/sharded_dataset.h"
#include "support/param_names.h"
#include "synth/population.h"
#include "util/rng.h"
#include "util/spec.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

/// Small shared world (built once; tests treat it as read-only).
const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 20;
    config.days = 1;
    config.seed = 77;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

core::ScenarioSpec BaseSpec() {
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  spec.mechanisms = {"identity", "cloaking", "geo_ind[eps=0.01]"};
  spec.evaluators = {"coverage", "spatial_distortion"};
  spec.seeds = {11};
  return spec;
}

TEST(ScenarioEngine, GridCoversEveryCell) {
  core::ScenarioEngine engine(BaseSpec());
  const core::Report report = engine.Run();

  // 3 mechanisms x 2 evaluators, every pair present, in canonical order.
  std::size_t coverage_rows = 0;
  for (const core::ReportRow& row : report.rows()) {
    EXPECT_EQ(row.seed, 11u);
    if (row.metric == "coverage_jaccard") ++coverage_rows;
  }
  EXPECT_EQ(coverage_rows, 3u);
  EXPECT_EQ(engine.stats().mechanism_nodes, 3u);
  EXPECT_EQ(engine.stats().evaluator_nodes, 6u);
  EXPECT_EQ(report.rows().front().mechanism, "identity");

  // Identity sanity: published == original.
  for (const core::ReportRow& row : report.rows()) {
    if (row.mechanism != "identity") continue;
    if (row.metric == "coverage_jaccard") EXPECT_DOUBLE_EQ(row.value, 1.0);
    if (row.metric == "path_mean_m") EXPECT_DOUBLE_EQ(row.value, 0.0);
  }
}

/// The evaluators that split off a prepared original side.
const std::vector<std::string>& PreparedEvaluators() {
  static const std::vector<std::string> evaluators = {
      "uncertainty", "poi_attack",       "reident",
      "home_work",   "trajectory_stats", "range_queries[n=32]"};
  return evaluators;
}

TEST(ScenarioEngine, PreparedRowsAreIndependentOfTheGrid) {
  // One original side per (evaluator, seed) column, shared by every row:
  // each (row, seed) of a 3-row x 2-seed grid must be byte-identical to
  // that row and seed run alone, at any thread count. The second seed
  // catches an original side shared across seeds (range_queries'
  // workload depends on the seed).
  const std::vector<std::string> rows = BaseSpec().mechanisms;
  const std::vector<std::uint64_t> seeds = {1, 2};
  const auto run = [](std::vector<std::string> mechanisms,
                      std::vector<std::uint64_t> seeds, std::size_t threads) {
    core::ScenarioSpec spec = BaseSpec();
    spec.mechanisms = std::move(mechanisms);
    spec.evaluators = PreparedEvaluators();
    spec.seeds = std::move(seeds);
    spec.threads = threads;
    core::ScenarioEngine engine(spec);
    const core::Report report = engine.Run();
    EXPECT_TRUE(report.AllOk());
    // prepared evaluators x seeds, whatever the row count.
    const std::size_t prepare_nodes = 6 * spec.seeds.size();
    EXPECT_EQ(engine.stats().prepare_nodes, prepare_nodes);
    EXPECT_NE(engine.stats().ToString().find(
                  " prepare_nodes=" + std::to_string(prepare_nodes) + " "),
              std::string::npos);
    return report.ToCsv();
  };
  for (const std::size_t threads : {1u, 4u}) {
    const std::string grid = run(rows, seeds, threads);
    std::string alone;
    for (const std::string& row : rows) {
      for (const std::uint64_t seed : seeds) {
        const std::string csv = run({row}, {seed}, threads);
        alone += alone.empty() ? csv : csv.substr(csv.find('\n') + 1);
      }
    }
    EXPECT_EQ(grid, alone) << "threads=" << threads;
  }
}

TEST(ScenarioEngine, PreparedScoresMatchEvaluate) {
  // The engine's prepare-once path reports what each evaluator's own
  // Evaluate (Score of Prepare) returns for the cell.
  core::ScenarioSpec spec = BaseSpec();
  spec.evaluators = PreparedEvaluators();
  core::ScenarioEngine engine(spec);
  const core::Report report = engine.Run();
  std::vector<model::EventStore> terminals;
  core::ScenarioSpec publish = BaseSpec();
  publish.evaluators.clear();
  core::ScenarioEngine publisher(publish);
  (void)publisher.Run(&terminals);
  ASSERT_EQ(terminals.size(), 3u);
  // Canonical row names, in report order (== terminal order).
  std::vector<std::string> names;
  for (const core::ReportRow& row : report.rows()) {
    if (names.empty() || names.back() != row.mechanism) {
      names.push_back(row.mechanism);
    }
  }
  ASSERT_EQ(names.size(), 3u);
  std::size_t compared = 0;
  for (std::size_t r = 0; r < terminals.size(); ++r) {
    for (const std::string& text : PreparedEvaluators()) {
      const auto evaluator = core::CreateEvaluator(text);
      const core::EvalInput input{World(), terminals[r].View(),
                                  attacks::DatasetProjection(World()), 11};
      for (const core::MetricValue& value : evaluator->Evaluate(input)) {
        bool found = false;
        for (const core::ReportRow& row : report.rows()) {
          if (row.mechanism != names[r] ||
              row.evaluator != evaluator->Name() ||
              row.metric != value.metric) {
            continue;
          }
          found = true;
          EXPECT_EQ(std::memcmp(&row.value, &value.value, sizeof(double)), 0)
              << row.mechanism << " " << row.evaluator << " " << row.metric;
          ++compared;
        }
        EXPECT_TRUE(found) << text << " " << value.metric;
      }
    }
  }
  EXPECT_GT(compared, 3u * 6u);
}

TEST(ScenarioEngine, MixZoneGateKnobsNameSeparateStages) {
  // min_users and suppress change what a mix zone publishes, so the
  // engine, which memoizes stages by name, must run each spec.
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms = {"mixzone", "mixzone[min_users=3]",
                     "mixzone[suppress=0]"};
  spec.evaluators = {"coverage"};
  core::ScenarioEngine engine(spec);
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().mechanism_nodes, 3u);
  ASSERT_EQ(report.rows().size(), 3u);
  EXPECT_EQ(report.rows()[0].mechanism, "mixzone[r=150m,w=600s]");
  EXPECT_EQ(report.rows()[1].mechanism, "mixzone[r=150m,w=600s,min_users=3]");
  EXPECT_EQ(report.rows()[2].mechanism, "mixzone[r=150m,w=600s,suppress=0]");
}

TEST(ScenarioEngine, MemoizesDuplicateMechanismSpecs) {
  core::ScenarioSpec spec = BaseSpec();
  // "cloaking" canonicalizes to "cloaking[cell=250m]": one shared node.
  spec.mechanisms = {"cloaking", "cloaking[cell=250m]", "identity"};
  core::ScenarioEngine engine(spec);
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().mechanism_nodes, 2u);
  EXPECT_EQ(engine.stats().grid_cells, 6u);
  std::size_t cloaking_rows = 0;
  for (const core::ReportRow& row : report.rows()) {
    if (row.mechanism == "cloaking[cell=250m]" &&
        row.metric == "coverage_jaccard") {
      ++cloaking_rows;
    }
  }
  EXPECT_EQ(cloaking_rows, 1u);  // deduped, not duplicated
}

TEST(ScenarioEngine, ReportByteIdenticalAcrossThreadCounts) {
  core::ScenarioSpec spec = BaseSpec();
  spec.evaluators = {"coverage", "spatial_distortion", "range_queries[n=40]",
                     "poi_attack"};
  spec.seeds = {3, 9};

  spec.threads = 1;
  const std::string serial = core::RunScenario(spec).ToCsv();
  spec.threads = 4;
  const std::string parallel = core::RunScenario(spec).ToCsv();
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("range_err_median"), std::string::npos);
}

TEST(ScenarioEngine, ReportByteIdenticalAcrossSourceShardings) {
  const fs::path dir = fs::temp_directory_path() / "mobipriv_engine_src";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // The same dataset served four ways: borrowed, one .mpc, 1-shard dir,
  // 8-shard dir.
  const std::string mpc = (dir / "world.mpc").string();
  model::WriteColumnar(model::EventStore::FromDataset(World()), mpc);
  model::ShardedDataset::Partition(World(), 1)
      .SaveShards((dir / "s1").string());
  model::ShardedDataset::Partition(World(), 8)
      .SaveShards((dir / "s8").string());

  core::ScenarioSpec spec = BaseSpec();
  spec.evaluators = {"coverage", "trajectory_stats"};

  const std::string borrowed = core::RunScenario(spec).ToCsv();
  spec.source = core::DatasetSourceSpec::ColumnarFile(mpc);
  const std::string columnar = core::RunScenario(spec).ToCsv();
  spec.source = core::DatasetSourceSpec::ShardDir((dir / "s1").string());
  const std::string one_shard = core::RunScenario(spec).ToCsv();
  spec.source = core::DatasetSourceSpec::ShardDir((dir / "s8").string());
  const std::string eight_shards = core::RunScenario(spec).ToCsv();

  EXPECT_EQ(borrowed, columnar);
  EXPECT_EQ(borrowed, one_shard);
  EXPECT_EQ(borrowed, eight_shards);

  // FromPath dispatches: directory-with-manifest vs .mpc file.
  EXPECT_EQ(core::DatasetSourceSpec::FromPath((dir / "s8").string()).kind,
            core::DatasetSourceSpec::Kind::kShardDir);
  EXPECT_EQ(core::DatasetSourceSpec::FromPath(mpc).kind,
            core::DatasetSourceSpec::Kind::kColumnarFile);
  fs::remove_all(dir);
}

TEST(ScenarioEngine, MpcSourceFeedsGridWithoutFullMaterialize) {
  const fs::path dir = fs::temp_directory_path() / "mobipriv_engine_mpc";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string mpc = (dir / "world.mpc").string();
  model::WriteColumnar(model::EventStore::FromDataset(World()), mpc);

  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::ColumnarFile(mpc);
  // Per-trace mechanisms stream the mmap'd view trace by trace; mixzone
  // and ours are whole-dataset but SoA-native end to end — detection
  // reads the view's columns and reassembly writes store columns
  // directly. wait4me assembles its output through an AoS Dataset, but
  // reads its input through the view without calling Materialize. The
  // privacy evaluators read the same views.
  spec.mechanisms = {"speed_smoothing", "geo_ind[eps=0.01]",
                     "geo_ind[eps=0.1]", "cloaking", "gaussian",
                     "downsampling", "mixzone", "ours", "wait4me"};
  spec.evaluators = {"spatial_distortion", "coverage", "trajectory_stats",
                     "poi_attack", "certification", "uncertainty"};
  spec.seeds = {5};

  const std::size_t before = model::FullMaterializeCount();
  const std::size_t copies_before = model::TraceCopyCount();
  core::ScenarioEngine engine(spec);
  const core::Report report = engine.Run();
  EXPECT_EQ(model::FullMaterializeCount(), before)
      << "engine or a per-trace mechanism/evaluator materialized the "
         "full source";
  // The SoA-native contract: mechanism nodes fill EventStore columns
  // straight from the mmap'd view — not one owning per-trace copy
  // (TraceView::Materialize) anywhere between source and report.
  EXPECT_EQ(model::TraceCopyCount(), copies_before)
      << "a mechanism or evaluator built an owning Trace from a view on "
         "the store path";
  EXPECT_EQ(engine.stats().mechanism_nodes, 9u);
  EXPECT_EQ(engine.stats().evaluator_nodes, 54u);
  EXPECT_FALSE(report.rows().empty());
  fs::remove_all(dir);
}

TEST(ScenarioEngine, PivotTableShapesRows) {
  const core::Report report = core::RunScenario(BaseSpec());
  const core::Table pivot = report.Pivot("coverage[cell=200m]");
  const std::string csv = pivot.ToCsv();
  EXPECT_NE(csv.find("mechanism,seed,coverage_jaccard"), std::string::npos);
  EXPECT_NE(csv.find("identity,11,1.000000"), std::string::npos);
}

TEST(ScenarioEngine, InvalidSpecsFailAtCompileTime) {
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms = {"warp_drive"};
  EXPECT_THROW(core::ScenarioEngine{spec}, util::SpecError);

  spec = BaseSpec();
  spec.evaluators = {"coverage[radius=1]"};  // unknown parameter
  EXPECT_THROW(core::ScenarioEngine{spec}, util::SpecError);

  spec = BaseSpec();
  spec.mechanisms.clear();
  EXPECT_THROW(core::ScenarioEngine{spec}, util::SpecError);

  // Out-of-range values that used to exhaust memory (grid, n) or score
  // any noise as a perfect match (cell) fail at compile time, naming the
  // key.
  const std::pair<const char*, const char*> bad_evaluators[] = {
      {"kdelta[grid=0]", "grid"},      {"range_queries[n=-1]", "n"},
      {"coverage[cell=0]", "cell"},    {"heatmap[cell=0]", "cell"},
      {"kdelta[tolerance=2]", "tolerance"}, {"poi_attack[radius=-1]", "radius"},
      {"certification[interval=-1]", "interval"}};
  for (const auto& [text, key] : bad_evaluators) {
    spec = BaseSpec();
    spec.evaluators = {text};
    try {
      core::ScenarioEngine engine(spec);
      ADD_FAILURE() << text << " was accepted";
    } catch (const util::SpecError& error) {
      EXPECT_NE(std::string(error.what()).find("parameter " +
                                               std::string(key)),
                std::string::npos)
          << text << ": " << error.what();
    }
  }
}

// Every evaluator name parses back to itself, and differently configured
// evaluators never share a name — for every registered base and every key
// of its parameter table.
TEST(ScenarioEngine, EvaluatorNamesRoundTrip) {
  test_support::ExpectNamesRoundTripAndAreInjective(
      core::RegisteredEvaluatorBases(),
      [](const std::string& base) { return core::EvaluatorParams(base); },
      [](const std::string& spec) {
        return core::CreateEvaluator(spec)->Name();
      });
}

TEST(ScenarioEngine, SpecsThatUsedToShareANameRunSeparately) {
  // Each pair differs in a key the old names dropped (min_len, grid,
  // overlap) or in a fraction they rounded away (sigma, eps, cell).
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms = {"speed_smoothing",
                     "speed_smoothing[min_len=5000m]",
                     "wait4me[k=2]",
                     "wait4me[k=2,grid=300]",
                     "wait4me[k=2,overlap=0.2]",
                     "gaussian[sigma=10]",
                     "gaussian[sigma=10.4]"};
  spec.evaluators = {"coverage"};
  core::ScenarioEngine engine(spec);
  ASSERT_TRUE(engine.Run().AllOk());
  EXPECT_EQ(engine.stats().mechanism_nodes, 7u);
  EXPECT_EQ(engine.stats().grid_cells, 7u);

  spec.mechanisms = {"gaussian[sigma=10]", "gaussian[sigma=10.4]",
                     "geo_ind[eps=0.01]", "geo_ind[eps=0.01004]"};
  spec.evaluators = {"spatial_distortion", "coverage[cell=100]",
                     "coverage[cell=100.4]"};
  core::ScenarioEngine grid(spec);
  ASSERT_TRUE(grid.Run().AllOk());
  EXPECT_EQ(grid.stats().mechanism_nodes, 4u);
  EXPECT_EQ(grid.stats().grid_cells, 12u);
  EXPECT_EQ(grid.stats().evaluator_nodes, 12u);
}

TEST(ScenarioEngine, EvaluatorNamesAreInjectiveOnConfig) {
  // The engine dedupes evaluators by Name(); differently-configured
  // evaluators must therefore never share one.
  for (const char* tuned :
       {"poi_attack[dwell=600]", "poi_attack[diameter=750m]",
        "kdelta[grid=30]", "kdelta[tolerance=0.1]"}) {
    const auto base = std::string(tuned).substr(0, std::string(tuned).find('['));
    EXPECT_NE(core::CreateEvaluator(tuned)->Name(),
              core::CreateEvaluator(base)->Name())
        << tuned;
    // ... and the tuned name still round-trips.
    const auto evaluator = core::CreateEvaluator(tuned);
    EXPECT_EQ(core::CreateEvaluator(evaluator->Name())->Name(),
              evaluator->Name());
  }
}

TEST(ScenarioEngine, InstantiatesFromOriginalSpecTextNotLossyName) {
  // "geo_ind[eps=0.00004]" canonicalizes to the name "geo_ind[eps=4e-05]":
  // the 4-digit form "0.0000" would not parse back to the same double, so
  // the name falls back to shortest round-trip form. The engine still
  // builds each stage from its original spec text; finite report values
  // show it ran epsilon = 0.00004.
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms = {"geo_ind[eps=0.00004]"};
  spec.evaluators = {"spatial_distortion"};
  const core::Report report = core::RunScenario(std::move(spec));
  ASSERT_FALSE(report.rows().empty());
  EXPECT_EQ(report.rows().front().mechanism, "geo_ind[eps=4e-05]");
  for (const core::ReportRow& row : report.rows()) {
    EXPECT_TRUE(std::isfinite(row.value)) << row.metric;
  }
}

TEST(ScenarioEngine, RunTwiceThrows) {
  core::ScenarioEngine engine(BaseSpec());
  (void)engine.Run();
  EXPECT_THROW((void)engine.Run(), std::logic_error);
}

// ---- Run(&terminals): the caller keeps the mechanism outputs. -----------

TEST(ScenarioEngine, KeepingTerminalsLeavesTheReportUnchanged) {
  const fs::path dir = fs::temp_directory_path() / "mobipriv_engine_keep";
  fs::remove_all(dir);
  model::ShardedDataset::Partition(World(), 4).SaveShards(dir.string());

  // Returns the streamed shard count of the plain run, after checking
  // that keeping the terminals changes nothing in the report.
  const auto check = [](const core::ScenarioSpec& spec) {
    core::ScenarioEngine plain(spec);
    const std::string reference = plain.Run().ToCsv();
    core::ScenarioEngine keeping(spec);
    std::vector<model::EventStore> terminals;
    EXPECT_EQ(keeping.Run(&terminals).ToCsv(), reference);
    EXPECT_EQ(terminals.size(), spec.mechanisms.size() * spec.seeds.size());
    EXPECT_EQ(keeping.stats().streamed_shards, 0u);  // whole-view DAG
    return plain.stats().streamed_shards;
  };

  // A shard-dir grid that a plain Run() streams ...
  core::ScenarioSpec streamable;
  streamable.source = core::DatasetSourceSpec::ShardDir(dir.string());
  streamable.mechanisms = {"gaussian", "geo_ind[eps=0.01]"};
  streamable.evaluators = {"trajectory_stats", "range_queries[n=32]"};
  streamable.seeds = {5, 9};
  EXPECT_GT(check(streamable), 0u);

  // ... and a chained grid whose rows share a prefix.
  core::ScenarioSpec chained = BaseSpec();
  chained.mechanisms = {"geo_ind[eps=0.05]|downsampling[dt=120]",
                        "geo_ind[eps=0.05]|downsampling[dt=120]|cloaking",
                        "geo_ind[eps=0.05]"};
  chained.seeds = {3, 4};
  EXPECT_EQ(check(chained), 0u);
  fs::remove_all(dir);
}

TEST(ScenarioEngine, TerminalsAreThePerPrefixRealizations) {
  // Each kept store is the row's last stage under the engine's per-prefix
  // streams, recomputed here by hand; report order is row-major, then
  // seed.
  const std::vector<std::vector<std::string>> rows = {
      {"geo_ind[eps=0.05]", "downsampling[dt=120]", "mixzone[r=100m]"},
      {"cloaking"},
      {"geo_ind[eps=0.05]", "downsampling[dt=120]"}};
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms.clear();
  for (const auto& stages : rows) {
    spec.mechanisms.push_back(util::Join(stages, "|"));
  }
  spec.seeds = {3, 8};
  core::ScenarioEngine engine(spec);
  std::vector<model::EventStore> terminals;
  ASSERT_TRUE(engine.Run(&terminals).AllOk());
  ASSERT_EQ(terminals.size(), rows.size() * spec.seeds.size());

  std::size_t next = 0;
  for (const auto& stages : rows) {
    for (const std::uint64_t seed : spec.seeds) {
      model::EventStore manual;
      model::DatasetView input = World();
      std::string prefix;
      for (const std::string& text : stages) {
        const auto mechanism = mech::CreateMechanism(text);
        if (!prefix.empty()) prefix += "|";
        prefix += mechanism->Name();
        util::Rng rng(util::DeriveStreamSeed(
            seed, model::Fnv1a64(prefix.data(), prefix.size()), 0));
        manual = mechanism->ApplyToStore(input, rng);
        input = manual.View();
      }
      EXPECT_EQ(core::OutputCache::FingerprintView(terminals[next].View()),
                core::OutputCache::FingerprintView(manual.View()))
          << prefix << " seed " << seed;
      ++next;
    }
  }
}

TEST(ScenarioEngine, KeepingTerminalsNeedsNoEvaluators) {
  core::ScenarioSpec spec = BaseSpec();
  spec.evaluators.clear();
  core::ScenarioEngine engine(spec);
  std::vector<model::EventStore> terminals;
  const core::Report report = engine.Run(&terminals);
  EXPECT_TRUE(report.rows().empty());
  EXPECT_TRUE(report.AllOk());
  EXPECT_EQ(engine.stats().evaluator_nodes, 0u);
  ASSERT_EQ(terminals.size(), 3u);
  // Row 0 is identity: its store is the source, unchanged.
  const model::DatasetView source = World();
  EXPECT_EQ(core::OutputCache::FingerprintView(terminals[0].View()),
            core::OutputCache::FingerprintView(source));
  EXPECT_GT(terminals[1].EventCount(), 0u);
  EXPECT_GT(terminals[2].EventCount(), 0u);
}

}  // namespace
}  // namespace mobipriv
