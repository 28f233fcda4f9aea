// Command-line anonymizer for real datasets: reads the native CSV format
// (user,lat,lng,timestamp), the binary columnar `.mpc` format (see
// docs/FORMAT.md) or a SaveShards directory, applies ANY registered
// mechanism (default: the paper's pipeline), writes the sanitized dataset,
// and can score the publication with the scenario engine's evaluator
// battery. This is the tool a data publisher would actually run.
//
//   $ ./anonymize_csv --input raw.csv --output published.csv
//         [--mechanism "ours[speed+mix]"] [--seed 1] [--threads 0]
//         [--shards 0] [--evaluate coverage,spatial_distortion]
//         [--spacing 100] [--zone-radius 150] [--window 600]
//         [--no-mixzones] [--no-smoothing] [--mech-cache DIR]
//   $ ./anonymize_csv --sweep sweep.cfg [--workers N]
//
// --sweep runs a whole scenario grid (sources x mechanisms — chains
// included — x evaluators x seeds) declared in a config file (see
// docs/FORMAT.md, "Sweep config files" and examples/sweep.cfg) and prints
// the unified report as CSV; every other option but --workers is ignored.
//
// Input format is dispatched on the path (`.mpc` = columnar, a directory
// with manifest.mpm = shard dir, else CSV); `.mpc` inputs are mmap-opened
// and fed to the mechanism as zero-copy views. --mechanism takes any
// registry spec string ("geo_ind[eps=0.01]", "wait4me[k=4,delta=500m]",
// ...); the legacy pipeline flags (--spacing etc.) are shorthand that
// assembles the "ours[...]" spec when --mechanism is not given.
//
// The mechanism runs exactly once, as the single row of a scenario-engine
// grid: the written file is that row's output (a chain is published as the
// engine's per-prefix realization), and `--evaluate e1,e2,...` scores
// exactly that file and prints the unified report. --mech-cache DIR serves
// this run, so a rerun reads the output back instead of recomputing it. A
// failed mechanism writes nothing and exits 1; so does any failed report
// row (after the file is written). `--shards N` additionally persists the
// same publication, partitioned by user, as `<output>.shards/` via
// ShardedDataset::SaveShards: a shard directory that binds back to exactly
// the scored file, with mix zones spanning the whole population.
//
// With --demo (no input file), generates a synthetic dataset, writes it to
// --output-raw, anonymizes it, and writes the result — a self-contained
// demonstration of the file workflow.
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"
#include "util/cli.h"
#include "util/spec.h"
#include "util/string_utils.h"

namespace {

/// Splits a comma-separated list of spec strings, ignoring commas inside
/// brackets ("kdelta[delta=500m,grid=60s],coverage" is two specs).
std::vector<std::string> SplitSpecList(const std::string& text) {
  std::vector<std::string> specs;
  for (std::string& piece : mobipriv::util::SplitTopLevel(text, ',')) {
    if (!piece.empty()) specs.push_back(std::move(piece));
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mobipriv;

  util::CliParser cli("mobipriv anonymizer (registry + scenario engine)");
  cli.AddOption("input", "input dataset (.csv, .mpc or shard dir)", "");
  cli.AddOption("output", "output path (.csv or .mpc columnar)",
                "published.csv");
  cli.AddOption("output-raw", "where --demo writes the raw input",
                "raw.csv");
  cli.AddOption("mechanism",
                "mechanism spec string (any registered mechanism; empty = "
                "ours[...] assembled from the pipeline flags)",
                "");
  cli.AddOption("evaluate",
                "comma-separated evaluator specs to score the publication "
                "with (e.g. coverage,spatial_distortion,poi_attack)", "");
  cli.AddOption("shards", "also persist the publication partitioned into "
                "N shards as <output>.shards/ (0 = off)", "0");
  cli.AddOption("spacing", "constant-speed spacing epsilon, metres", "100");
  cli.AddOption("zone-radius", "mix-zone radius, metres", "150");
  cli.AddOption("window", "mix-zone time window, seconds", "600");
  cli.AddOption("mech-cache",
                "directory for the engine's .mpc mechanism-output cache "
                "(reused across runs keyed by mechanism+data+seed; empty = "
                "off)", "");
  cli.AddOption("mech-cache-max",
                "LRU byte cap for --mech-cache (0 = unbounded)", "0");
  cli.AddOption("sweep",
                "run a full scenario grid from a sweep config file "
                "(docs/FORMAT.md, \"Sweep config files\") and print the "
                "report CSV; all other options but --workers are ignored",
                "");
  cli.AddOption("workers",
                "worker PROCESSES for shard-dir --sweep grids (0 = "
                "in-process; supervised, crash-tolerant, byte-identical "
                "reports at any value; applies to --sweep only)", "0");
  cli.AddFlag("no-mixzones", "disable stage 2 (swapping)");
  cli.AddFlag("no-smoothing", "disable stage 1 (constant speed)");
  cli.AddFlag("demo", "generate a synthetic input instead of reading one");
  util::AddRunOptions(cli, 1);
  util::IgnoreSigpipe();
  if (!cli.Parse(argc, argv)) return 1;
  const util::RunOptions run = util::ApplyRunOptions(cli);
  const std::int64_t workers_arg = cli.GetInt("workers");
  if (workers_arg < 0) {
    std::cerr << "--workers must be >= 0 (got " << workers_arg << ")\n";
    return 1;
  }

  // The mechanism: an explicit spec string, or the paper's pipeline
  // assembled from the legacy flags.
  std::string mechanism_spec = cli.GetString("mechanism");
  if (mechanism_spec.empty()) {
    const bool speed = !cli.GetBool("no-smoothing");
    const bool mix = !cli.GetBool("no-mixzones");
    if (!speed && !mix) {
      mechanism_spec = "identity";
    } else {
      mechanism_spec = "ours[";
      if (speed) mechanism_spec += "speed";
      if (speed && mix) mechanism_spec += "+";
      if (mix) mechanism_spec += "mix";
      if (speed) {
        mechanism_spec += ",eps=" + cli.GetString("spacing") + "m";
      }
      if (mix) {
        mechanism_spec += ",r=" + cli.GetString("zone-radius") + "m";
        mechanism_spec += ",w=" + cli.GetString("window") + "s";
      }
      mechanism_spec += "]";
    }
  }

  // ---- Sweep mode: the whole grid comes from the config file. ----------
  if (!cli.GetString("sweep").empty()) {
    try {
      core::ScenarioSpec spec = core::LoadSweepConfig(cli.GetString("sweep"));
      if (workers_arg > 0) {
        spec.workers = static_cast<std::size_t>(workers_arg);
      }
      core::ScenarioEngine engine(std::move(spec));
      const core::Report report = engine.Run();
      std::cout << report.ToCsv();
      if (!util::FlushStdout("anonymize_csv")) return 1;
      std::cerr << "# " << engine.stats().ToString() << "\n";
      return report.AllOk() ? 0 : 1;
    } catch (const util::SpecError& e) {
      std::cerr << "Spec error: " << e.what() << "\n";
      return 1;
    } catch (const std::exception& e) {
      std::cerr << "Error: " << e.what() << "\n";
      return 1;
    }
  }

  bool rows_ok = true;  // a failed report row exits 1, as --sweep does
  try {
    core::DatasetSourceSpec source_spec;
    if (cli.GetBool("demo") || cli.GetString("input").empty()) {
      std::cout << "No --input given: generating a demo dataset...\n";
      synth::PopulationConfig population;
      population.agents = 10;
      population.days = 1;
      const synth::SyntheticWorld world(population);
      model::SaveDataset(world.dataset(), cli.GetString("output-raw"));
      std::cout << "Raw data written to " << cli.GetString("output-raw")
                << "\n";
      source_spec =
          core::DatasetSourceSpec::FromPath(cli.GetString("output-raw"));
    } else {
      source_spec = core::DatasetSourceSpec::FromPath(cli.GetString("input"));
    }
    const std::int64_t shards_arg = cli.GetInt("shards");
    if (shards_arg < 0) {
      std::cerr << "--shards must be >= 0 (got " << shards_arg << ")\n";
      return 1;
    }
    const std::int64_t cache_max = cli.GetInt("mech-cache-max");
    if (cache_max < 0) {
      std::cerr << "--mech-cache-max must be >= 0 (got " << cache_max
                << ")\n";
      return 1;
    }

    // One grid row: the mechanism, scored by --evaluate's evaluators (none
    // when it is absent — the run then only publishes).
    const std::string evaluate = cli.GetString("evaluate");
    core::ScenarioSpec spec;
    spec.source = source_spec;
    spec.mechanisms = {mechanism_spec};
    spec.evaluators = SplitSpecList(evaluate);
    spec.seeds = {run.seed};
    spec.threads = run.threads;
    spec.mechanism_cache_dir = cli.GetString("mech-cache");
    spec.mechanism_cache_max_bytes = static_cast<std::uint64_t>(cache_max);
    core::ScenarioEngine engine(std::move(spec));
    const std::string name = mech::ChainName(mechanism_spec);

    // ---- Publish: the engine's single mechanism node IS the publication,
    // so the file and the report cannot disagree. ------------------------
    std::vector<model::EventStore> terminals;
    const core::Report report = engine.Run(&terminals);
    std::cout << "Input (" << source_spec.Describe() << "): "
              << engine.stats().source_traces << " traces, "
              << engine.stats().source_events << " events\n";
    for (const core::ReportRow& row : report.rows()) {
      if (!row.evaluator.empty()) continue;
      // Only the mechanism node's own row has no evaluator.
      std::cerr << "Publish of " << row.mechanism << " "
                << core::ToString(row.status) << ": " << row.error
                << "\nNothing was written.\n";
      return 1;
    }
    const model::EventStore& published = terminals.front();
    std::cout << "\n" << name << ": published " << published.TraceCount()
              << " traces, " << published.EventCount() << " events\n";
    const std::string output = cli.GetString("output");
    if (model::IsColumnarPath(output)) {
      model::WriteColumnar(published, output);
    } else {
      model::WriteCsvFile(published.ToDataset(), output);
    }
    std::cout << "Published dataset written to " << output << "\n";
    if (shards_arg > 0) {
      const std::string shard_dir = output + ".shards";
      model::ShardedDataset::Partition(published.ToDataset(),
                                       static_cast<std::size_t>(shards_arg))
          .SaveShards(shard_dir);
      std::cout << "Published partition (" << shards_arg
                << " shards) written to " << shard_dir << "\n";
    }

    if (!evaluate.empty()) {
      std::cout << "\nEvaluation (" << engine.stats().ToString() << "):\n"
                << report.ToTable().ToString();
    }
    rows_ok = report.AllOk();
  } catch (const model::IoError& e) {
    std::cerr << "I/O error: " << e.what() << "\n";
    return 1;
  } catch (const util::SpecError& e) {
    std::cerr << "Spec error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Last-resort containment: no failure (injected or real) escapes as
    // an unhandled-exception abort from a CLI tool.
    std::cerr << "Error: " << e.what() << "\n";
    return 1;
  }
  return util::FlushStdout("anonymize_csv") && rows_ok ? 0 : 1;
}
