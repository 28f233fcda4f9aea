#include "model/filters.h"

#include <algorithm>
#include <cassert>

namespace mobipriv::model {

std::vector<Trace> SplitByGap(const Trace& trace,
                              util::Timestamp max_gap_seconds,
                              std::size_t min_events) {
  assert(max_gap_seconds > 0);
  std::vector<Trace> pieces;
  Trace current;
  current.set_user(trace.user());
  for (const auto& event : trace) {
    if (!current.empty() &&
        event.time - current.back().time > max_gap_seconds) {
      if (current.size() >= min_events) pieces.push_back(std::move(current));
      current = Trace();
      current.set_user(trace.user());
    }
    current.Append(event);
  }
  if (current.size() >= min_events) pieces.push_back(std::move(current));
  return pieces;
}

Dataset SplitDatasetByGap(const Dataset& dataset,
                          util::Timestamp max_gap_seconds,
                          std::size_t min_events) {
  Dataset out;
  for (const auto& trace : dataset.traces()) {
    // Preserve the user-name mapping.
    const UserId id = out.InternUser(dataset.UserName(trace.user()));
    for (auto& piece : SplitByGap(trace, max_gap_seconds, min_events)) {
      piece.set_user(id);
      out.AddTrace(std::move(piece));
    }
  }
  return out;
}

Trace DeduplicateTimes(const Trace& trace) {
  Trace out;
  out.set_user(trace.user());
  for (const auto& event : trace) {
    if (out.empty() || event.time != out.back().time) out.Append(event);
  }
  return out;
}

Trace RemoveSpeedOutliers(const Trace& trace, double max_speed_mps) {
  assert(max_speed_mps > 0.0);
  Trace out;
  out.set_user(trace.user());
  for (const auto& event : trace) {
    if (out.empty()) {
      out.Append(event);
      continue;
    }
    const auto dt = event.time - out.back().time;
    if (dt <= 0) continue;  // simultaneous/backwards fix: drop
    const double dist =
        geo::HaversineDistance(out.back().position, event.position);
    if (dist / static_cast<double>(dt) <= max_speed_mps) out.Append(event);
  }
  return out;
}

geo::LatLng InterpolateAt(const Trace& trace, util::Timestamp t) {
  assert(!trace.empty());
  const auto& events = trace.events();
  if (t <= events.front().time) return events.front().position;
  if (t >= events.back().time) return events.back().position;
  // First event with time >= t (exists: t < back().time).
  const auto it = std::lower_bound(
      events.begin(), events.end(), t,
      [](const Event& e, util::Timestamp value) { return e.time < value; });
  const auto& after = *it;
  const auto& before = *(it - 1);
  if (after.time == before.time) return before.position;
  const double alpha =
      static_cast<double>(util::ElapsedSeconds(before.time, t)) /
      static_cast<double>(util::ElapsedSeconds(before.time, after.time));
  return geo::LatLng{
      before.position.lat +
          (after.position.lat - before.position.lat) * alpha,
      before.position.lng +
          (after.position.lng - before.position.lng) * alpha};
}

Trace ResampleTime(const Trace& trace, util::Timestamp step_seconds) {
  assert(step_seconds > 0);
  if (trace.size() < 2) return trace;
  Trace out;
  out.set_user(trace.user());
  const util::Timestamp t0 = trace.front().time;
  const util::Timestamp t_end = trace.back().time;
  for (util::Timestamp t = t0; t <= t_end; t += step_seconds) {
    out.Append(Event{InterpolateAt(trace, t), t});
  }
  // Always retain the final fix so the trace spans the full interval.
  if (out.back().time != t_end) {
    out.Append(Event{trace.back().position, t_end});
  }
  return out;
}

}  // namespace mobipriv::model
