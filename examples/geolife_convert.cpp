// Real-data on-ramp: convert a Geolife-format corpus to the native CSV or
// the binary columnar `.mpc` container (chosen by --output extension),
// optionally pre-processing it (gap splitting, speed-glitch removal) into
// publication-ready sessions and anonymizing on the way out. This is the
// tool that swaps the synthetic substrate for the paper's intended
// real-life datasets once you have them on disk. Converting once to .mpc
// makes every later run skip Geolife/CSV parsing entirely (see
// docs/FORMAT.md).
//
//   $ ./geolife_convert --root "Geolife Trajectories 1.3/Data"
//         --output geolife.mpc [--max-users 20] [--anonymize]
#include <iostream>

#include "core/anonymizer.h"
#include "model/columnar_file.h"
#include "model/filters.h"
#include "model/geolife.h"
#include "model/io.h"
#include "model/stats.h"
#include "util/cli.h"
#include "util/spec.h"

int main(int argc, char** argv) {
  using namespace mobipriv;

  util::CliParser cli("Geolife -> mobipriv CSV converter");
  cli.AddOption("root", "Geolife Data directory (contains user folders)",
                "");
  cli.AddOption("output", "output path (.csv or .mpc columnar)",
                "geolife.csv");
  cli.AddOption("max-users", "limit loaded users (0 = all)", "0");
  cli.AddOption("max-files", "limit PLT files per user (0 = all)", "0");
  cli.AddOption("gap", "split traces at recording gaps, seconds", "900");
  cli.AddOption("max-speed", "drop fixes implying more m/s than this",
                "70");
  cli.AddFlag("anonymize", "run the paper's pipeline before writing");
  util::IgnoreSigpipe();
  if (!cli.Parse(argc, argv)) return 1;

  if (cli.GetString("root").empty()) {
    std::cerr << "A --root directory is required (the Geolife 'Data' "
                 "folder).\n";
    return 1;
  }

  try {
    model::GeolifeLoadOptions options;
    options.max_users = static_cast<std::size_t>(cli.GetInt("max-users"));
    options.max_files_per_user =
        static_cast<std::size_t>(cli.GetInt("max-files"));
    std::cout << "Loading " << cli.GetString("root") << "...\n";
    model::Dataset dataset =
        model::LoadGeolife(cli.GetString("root"), options);
    std::cout << model::ComputeDatasetStats(dataset).ToString() << "\n";

    // Pre-processing: glitch removal then session splitting.
    model::Dataset cleaned;
    for (model::UserId id = 0; id < dataset.UserCount(); ++id) {
      cleaned.InternUser(dataset.UserName(id));
    }
    for (const auto& trace : dataset.traces()) {
      cleaned.AddTrace(
          model::RemoveSpeedOutliers(trace, cli.GetDouble("max-speed")));
    }
    model::Dataset sessions =
        model::SplitDatasetByGap(cleaned, cli.GetInt("gap"));
    std::cout << "After cleaning: " << sessions.TraceCount()
              << " session traces\n";

    if (cli.GetBool("anonymize")) {
      const core::Anonymizer anonymizer;
      util::Rng rng(1);
      core::PipelineReport report;
      sessions =
          anonymizer.ApplyToStoreWithReport(sessions, rng, report).ToDataset();
      std::cout << anonymizer.Name() << ":\n" << report.ToString() << "\n";
    }
    model::SaveDataset(sessions, cli.GetString("output"));
    std::cout << "Written to " << cli.GetString("output") << "\n";
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
  return util::FlushStdout("geolife_convert") ? 0 : 1;
}
