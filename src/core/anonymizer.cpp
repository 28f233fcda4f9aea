#include "core/anonymizer.h"

#include <sstream>

#include "mechanisms/identity.h"
#include "util/string_utils.h"

namespace mobipriv::core {

std::string PipelineReport::ToString() const {
  std::ostringstream os;
  os << "events: in=" << input_events
     << " after_smoothing=" << after_smoothing_events
     << " out=" << output_events << "\ntraces: in=" << input_traces
     << " dropped=" << dropped_traces << "\nmixzone: " << mixzone.ToString();
  return os.str();
}

Anonymizer::Anonymizer(AnonymizerConfig config)
    : config_(config), speed_(config.speed), mixzone_(config.mixzone) {}

std::string Anonymizer::Name() const {
  // Stage flags plus every non-default stage knob: the name must be
  // injective on the config (the scenario engine memoizes mechanism runs
  // by name, so two differently-tuned pipelines must never collide) and
  // round-trippable through mech::CreateMechanism (parameter names match
  // the registry's "ours" factory).
  std::string name = "ours[";
  if (config_.enable_speed_smoothing) name += "speed";
  if (config_.enable_speed_smoothing && config_.enable_mixzones) name += "+";
  if (config_.enable_mixzones) name += "mix";
  const mech::SpeedSmoothingConfig speed_defaults;
  if (config_.enable_speed_smoothing) {
    if (config_.speed.spacing_m != speed_defaults.spacing_m) {
      name += ",eps=" + util::FormatDouble(config_.speed.spacing_m, 0) + "m";
    }
    if (config_.speed.min_length_m != speed_defaults.min_length_m) {
      name +=
          ",min_len=" + util::FormatDouble(config_.speed.min_length_m, 0) +
          "m";
    }
  }
  if (config_.enable_mixzones) {
    name += mech::MixZoneSpecParams(config_.mixzone);
  }
  name += "]";
  return name;
}

model::EventStore Anonymizer::ApplyToStore(const model::DatasetView& input,
                                           util::Rng& rng) const {
  PipelineReport report;
  return ApplyToStoreWithReport(input, rng, report);
}

model::EventStore Anonymizer::ApplyToStoreWithReport(
    const model::DatasetView& input, util::Rng& rng,
    PipelineReport& report) const {
  report = PipelineReport{};
  report.input_events = input.EventCount();
  report.input_traces = input.TraceCount();
  report.after_smoothing_events = report.input_events;

  // Stage 1 produces columns directly (two-pass per-trace fill); stage 2's
  // detector reads those columns as a view and assembles its output
  // straight into store columns — the whole pipeline is SoA end to end.
  model::EventStore smoothed;
  if (config_.enable_speed_smoothing) {
    smoothed = speed_.ApplyToStore(input, rng);
    report.after_smoothing_events = smoothed.EventCount();
    report.dropped_traces = report.input_traces - smoothed.TraceCount();
  }
  model::EventStore output;
  if (config_.enable_mixzones) {
    output = mixzone_.ApplyToStoreWithReport(
        config_.enable_speed_smoothing ? smoothed.View() : input, rng,
        report.mixzone);
  } else if (config_.enable_speed_smoothing) {
    output = std::move(smoothed);
  } else {
    output = mech::Identity().ApplyToStore(input, rng);  // no stage ran
  }
  report.output_events = output.EventCount();
  return output;
}

}  // namespace mobipriv::core
