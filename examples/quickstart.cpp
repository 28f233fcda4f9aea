// Quickstart: generate a small synthetic city, anonymize it with the paper's
// full pipeline (constant-speed time distortion + mix-zone swapping) through
// the scenario engine, and print the before/after privacy and utility
// numbers.
//
//   $ ./quickstart [--agents 20] [--days 2] [--seed 42]
#include <iostream>
#include <vector>

#include "attacks/poi_extraction.h"
#include "core/engine.h"
#include "metrics/poi_metrics.h"
#include "model/stats.h"
#include "synth/population.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace mobipriv;

  util::CliParser cli(
      "mobipriv quickstart: anonymize a synthetic mobility dataset");
  cli.AddOption("agents", "number of simulated users", "20");
  cli.AddOption("days", "number of simulated days", "2");
  cli.AddOption("seed", "random seed", "42");
  if (!cli.Parse(argc, argv)) return 1;

  // 1. Generate a city's worth of mobility data (substitute for a real
  //    dataset; comes with ground truth).
  synth::PopulationConfig population;
  population.agents = static_cast<std::size_t>(cli.GetInt("agents"));
  population.days = static_cast<std::size_t>(cli.GetInt("days"));
  population.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
  std::cout << "Generating " << population.agents << " agents x "
            << population.days << " days...\n";
  const synth::SyntheticWorld world(population);
  std::cout << "Raw dataset:\n"
            << model::ComputeDatasetStats(world.dataset()).ToString() << "\n\n";

  // 2. Anonymize with the paper's full pipeline and score the publication,
  //    in one scenario-engine run that hands back the published store.
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(world.dataset());
  spec.mechanisms = {"ours"};
  spec.evaluators = {"coverage", "spatial_distortion", "poi_attack"};
  spec.seeds = {population.seed};
  core::ScenarioEngine engine(spec);
  std::vector<model::EventStore> terminals;
  const core::Report report = engine.Run(&terminals);
  std::cout << "Evaluation:\n" << report.ToTable().ToString() << "\n";
  if (!report.AllOk() || terminals.size() != 1) {
    std::cerr << "quickstart: the engine run did not complete\n";
    return 1;
  }
  const model::DatasetView published = terminals.front().View();
  std::cout << "Published " << published.EventCount() << " of "
            << world.dataset().EventCount() << " events\n";

  // 3. POI attack on the raw and the published data, scored against the
  //    world's ground truth in one shared frame.
  const attacks::PoiExtractor extractor;
  const geo::LocalProjection frame =
      attacks::DatasetProjection(world.dataset());
  const auto truth = metrics::DistinctTruePlaces(world.ground_truth(),
                                                 world.projection(), frame);
  const metrics::PoiScore raw_score =
      metrics::ScorePoiExtraction(extractor.Extract(world.dataset(), frame),
                                  truth);
  const metrics::PoiScore published_score = metrics::ScorePoiExtraction(
      extractor.Extract(published, frame), truth);
  std::cout << "\nPOI recall on published data: "
            << published_score.Recall() * 100.0 << "% (raw data: "
            << raw_score.Recall() * 100.0 << "%)\n";
  return 0;
}
