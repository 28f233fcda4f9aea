// Renders Figure 1 as data: exports the three pipeline stages of the
// two-user crossing scenario as GeoJSON files you can drop into
// geojson.io/QGIS and visually compare with the paper's figure — raw traces
// with POI clusters, the constant-speed traces, the swapped publication,
// plus the detected mix-zones and the ground-truth POI sites.
//
//   $ ./export_figure1 [--outdir .] [--seed 7]
#include <fstream>
#include <sstream>
#include <iostream>

#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "model/geojson.h"
#include "synth/population.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace mobipriv;

  util::CliParser cli("Figure 1 GeoJSON exporter");
  cli.AddOption("outdir", "output directory", ".");
  cli.AddOption("seed", "scenario seed", "7");
  if (!cli.Parse(argc, argv)) return 1;
  const std::string outdir = cli.GetString("outdir");

  const auto world = synth::MakeCrossingPairScenario(
      static_cast<std::uint64_t>(cli.GetInt("seed")));

  const auto write = [&](const std::string& name, const std::string& json) {
    const std::string path = outdir + "/" + name;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    out << json;
    std::cout << "wrote " << path << " (" << json.size() << " bytes)\n";
    return true;
  };

  // Panel (a): raw traces + ground-truth POI sites.
  model::GeoJsonOptions options;
  options.events_as_points = true;
  if (!write("fig1a_raw.geojson", model::ToGeoJson(world.dataset(), options)))
    return 1;
  {
    std::ostringstream sites;
    model::WritePoiSitesGeoJson(world.universe(), world.projection(), sites);
    if (!write("fig1_poi_sites.geojson", sites.str())) return 1;
  }

  // Panel (b): constant speed.
  const mech::SpeedSmoothing smoothing;
  util::Rng rng(1);
  const model::Dataset smoothed = smoothing.Apply(world.dataset(), rng);
  if (!write("fig1b_constant_speed.geojson",
             model::ToGeoJson(smoothed, options)))
    return 1;

  // Panel (c): mix-zone swapping (draw until a swap happens, as the figure
  // depicts one).
  mech::MixZoneConfig zone_config;
  zone_config.zone_radius_m = 200.0;
  zone_config.time_window_s = 900;
  const mech::MixZone mixzone(zone_config);
  mech::MixZoneReport report;
  model::EventStore published;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    util::Rng zone_rng(seed);
    published = mixzone.ApplyToStoreWithReport(smoothed, zone_rng, report);
    if (report.swaps_applied > 0) break;
  }
  if (!write("fig1c_swapped.geojson",
             model::ToGeoJson(published.ToDataset(), options)))
    return 1;
  {
    // Zone centres live in the frame of the *smoothed* dataset projection.
    const geo::LocalProjection zone_frame(
        smoothed.BoundingBox().Center());
    std::ostringstream zones;
    model::WriteZonesGeoJson(report.zones, zone_frame, zones);
    if (!write("fig1_zones.geojson", zones.str())) return 1;
  }

  std::cout << "\nDone: " << report.ToString()
            << "\nOpen the files side by side in geojson.io to see the "
               "three panels of the paper's Figure 1.\n";
  return 0;
}
