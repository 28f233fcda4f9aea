#include "core/anonymizer.h"

#include <sstream>

#include "mechanisms/identity.h"

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
  const bool speed = config_.enable_speed_smoothing;
  const bool mix = config_.enable_mixzones;
  // No stage prints "ours[]", which no spec parses to: bare "ours" runs
  // both stages.
  if (!speed && !mix) return "ours[]";
  util::Spec spec("ours");
  spec.AddFlag(speed && mix ? "speed+mix" : speed ? "speed" : "mix");
  if (speed) kOursSpeedParams.Write(config_.speed, spec);
  if (mix) kOursMixZoneParams.Write(config_.mixzone, spec);
  return spec.ToString();
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
