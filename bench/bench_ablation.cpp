// E9 (ablations) — the design choices DESIGN.md §4 calls out, each isolated:
//
//  A. chord-stepping vs naive arc-length resampling in stage 1. Arc-length
//     resampling follows the GPS-jitter wiggles a dwell accumulates
//     (kilometres of polyline inside one POI disc), so stops survive; chord
//     stepping absorbs them. This ablation is the reason the mechanism
//     works at all on real GPS noise.
//  B. trailing-remainder trimming (exact constant speed) vs keeping the
//     final fix (one short hop) — measured as certification outcome.
//  C. suppressing in-zone points vs keeping them (utility vs leaking the
//     meeting point itself).
//  D. session recordings vs continuous 24 h recording — the data regime
//     assumption, quantified.
#include <iostream>

#include "attacks/poi_extraction.h"
#include "core/experiment.h"
#include "geo/polyline.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/speed_smoothing.h"
#include "metrics/poi_metrics.h"
#include "privacy/certification.h"
#include "synth/population.h"
#include "util/string_utils.h"

namespace {

constexpr std::uint64_t kSeed = 86;

using namespace mobipriv;

/// Stage 1 variant using naive arc-length resampling (the ablated design).
model::Dataset ArcLengthSmooth(const model::Dataset& input, double spacing) {
  model::Dataset output;
  for (model::UserId id = 0; id < input.UserCount(); ++id) {
    output.InternUser(input.UserName(id));
  }
  for (const auto& trace : input.traces()) {
    if (trace.size() < 2) continue;
    const geo::LocalProjection projection(trace.BoundingBox().Center());
    const auto resampled =
        geo::ResampleUniform(projection.Project(trace.Positions()), spacing);
    if (resampled.size() < 2) continue;
    model::Trace out;
    out.set_user(trace.user());
    const auto t0 = trace.front().time;
    const auto t1 = trace.back().time;
    for (std::size_t k = 0; k < resampled.size(); ++k) {
      const double alpha = static_cast<double>(k) /
                           static_cast<double>(resampled.size() - 1);
      out.Append({projection.Unproject(resampled[k]),
                  t0 + static_cast<util::Timestamp>(
                           alpha * static_cast<double>(t1 - t0))});
    }
    output.AddTrace(std::move(out));
  }
  return output;
}

}  // namespace

int main() {
  std::cout << "=== E9: design-choice ablations ===\n\n";
  synth::PopulationConfig population;
  population.agents = 20;
  population.days = 1;
  population.seed = kSeed;
  const synth::SyntheticWorld world(population);

  const geo::LocalProjection frame =
      attacks::DatasetProjection(world.dataset());
  const auto truth = metrics::DistinctTruePlaces(
      world.ground_truth(), world.projection(), frame);
  const attacks::PoiExtractor extractor;
  const auto recall = [&](const model::Dataset& published) {
    return metrics::ScorePoiExtraction(extractor.Extract(published, frame),
                                       truth)
        .Recall();
  };

  // ---- A: chord stepping vs arc-length resampling. ----
  std::cout << "--- A: stage-1 resampling primitive ---\n";
  core::Table a({"variant", "POI recall", "events ratio"});
  const double raw_events =
      static_cast<double>(world.dataset().EventCount());
  {
    util::Rng rng(1);
    const mech::SpeedSmoothing chord;  // 100 m
    const auto published = chord.Apply(world.dataset(), rng);
    a.AddRow({"chord stepping (ours)",
              util::FormatDouble(recall(published), 3),
              util::FormatDouble(published.EventCount() / raw_events, 3)});
    const auto arc = ArcLengthSmooth(world.dataset(), 100.0);
    a.AddRow({"arc-length resample (ablated)",
              util::FormatDouble(recall(arc), 3),
              util::FormatDouble(arc.EventCount() / raw_events, 3)});
  }
  std::cout << a.ToString() << "\n";

  // ---- B: trailing-remainder trim -> exact certification. ----
  std::cout << "--- B: constant-speed certification of stage 1 ---\n";
  {
    util::Rng rng(2);
    const mech::SpeedSmoothing mechanism;
    const auto published = mechanism.Apply(world.dataset(), rng);
    const auto cert = privacy::CertifyConstantSpeed(published);
    std::cout << cert.ToString() << "\n\n";
  }

  // ---- C: suppression of in-zone points. ----
  std::cout << "--- C: mix-zone point suppression ---\n";
  core::Table c({"suppress", "published events", "suppressed %",
                 "co-location points published"});
  for (const bool suppress : {true, false}) {
    mech::MixZoneConfig config;
    config.suppress_zone_points = suppress;
    const mech::MixZone mixzone(config);
    util::Rng rng(3);
    mech::MixZoneReport report;
    const model::EventStore published =
        mixzone.ApplyToStoreWithReport(world.dataset(), rng, report);
    // Points inside detected zones still published = the leak.
    const geo::LocalProjection plane(
        world.dataset().BoundingBox().Center());
    const model::DatasetView published_view = published.View();
    std::size_t in_zone_published = 0;
    for (const model::TraceView& trace : published_view.traces()) {
      for (std::size_t i = 0; i < trace.size(); ++i) {
        for (const auto& zone : report.zones) {
          if (geo::Distance(plane.Project(trace.position(i)), zone.center) <=
              zone.radius_m) {
            ++in_zone_published;
            break;
          }
        }
      }
    }
    c.AddRow({suppress ? "yes (ours)" : "no (ablated)",
              std::to_string(published.EventCount()),
              util::FormatDouble(100.0 * report.SuppressionRatio(), 2),
              std::to_string(in_zone_published)});
  }
  std::cout << c.ToString() << "\n";

  // ---- D: session vs continuous recording. ----
  std::cout << "--- D: recording model (data-regime assumption) ---\n";
  core::Table d({"recording", "raw POI recall", "ours POI recall",
                 "mean published speed (m/s)"});
  for (const bool continuous : {false, true}) {
    synth::PopulationConfig regime = population;
    regime.simulator.continuous_recording = continuous;
    const synth::SyntheticWorld regime_world(regime);
    const auto regime_frame =
        attacks::DatasetProjection(regime_world.dataset());
    const auto regime_truth = metrics::DistinctTruePlaces(
        regime_world.ground_truth(), regime_world.projection(),
        regime_frame);
    const auto score = [&](const model::Dataset& dataset) {
      return metrics::ScorePoiExtraction(
                 extractor.Extract(dataset, regime_frame), regime_truth)
          .Recall();
    };
    util::Rng rng(4);
    const mech::SpeedSmoothing mechanism;
    const auto published = mechanism.Apply(regime_world.dataset(), rng);
    double speed_sum = 0.0;
    std::size_t speed_n = 0;
    for (const auto& trace : published.traces()) {
      if (trace.Duration() <= 0) continue;
      speed_sum += trace.LengthMeters() /
                   static_cast<double>(trace.Duration());
      ++speed_n;
    }
    d.AddRow({continuous ? "continuous 24h (ablated)" : "sessions (ours)",
              util::FormatDouble(score(regime_world.dataset()), 3),
              util::FormatDouble(score(published), 3),
              util::FormatDouble(speed_n ? speed_sum / speed_n : 0.0, 2)});
  }
  std::cout << d.ToString()
            << "\nexpected shape: (A) arc-length resampling leaks most "
               "POIs, chord stepping leaks ~none; (B) stage-1 output "
               "certifies; (C) disabling suppression publishes the "
               "co-location points; (D) 24h recording collapses the "
               "published speed to ~0.2 m/s and degrades hiding.\n";
  return 0;
}
