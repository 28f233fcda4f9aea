#include "attacks/tracker.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "geo/distance.h"

namespace mobipriv::attacks {
namespace {

struct ZonePassageView {
  std::size_t enter_idx = 0;  ///< first in-zone fix
  std::size_t exit_idx = 0;   ///< last in-zone fix
  bool found = false;
};

ZonePassageView FindFirstPassage(const model::TraceView& trace,
                                 const geo::LocalProjection& projection,
                                 geo::Point2 center, double radius) {
  ZonePassageView view;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool inside =
        geo::Distance(projection.Project(trace.position(i)), center) <=
        radius;
    if (inside && !view.found) {
      view.found = true;
      view.enter_idx = i;
      view.exit_idx = i;
    } else if (inside && view.found) {
      view.exit_idx = i;
    } else if (!inside && view.found) {
      break;  // first passage complete
    }
  }
  return view;
}

}  // namespace

MultiTargetTracker::MultiTargetTracker(TrackerConfig config)
    : config_(config) {
  assert(config_.velocity_window >= 1);
  assert(config_.gate_radius_m > 0.0);
}

std::vector<TrackingOutcome> MultiTargetTracker::TrackThroughZone(
    const model::DatasetView& original, const model::DatasetView& published,
    const geo::LocalProjection& projection, geo::Point2 zone_center,
    double zone_radius_m) const {
  std::vector<TrackingOutcome> outcomes;

  for (const model::TraceView& target_trace : original.traces()) {
    const auto passage =
        FindFirstPassage(target_trace, projection, zone_center,
                         zone_radius_m);
    if (!passage.found || passage.enter_idx == 0) continue;

    // --- Adversary knowledge: movement up to the zone entry. ---
    const std::size_t entry = passage.enter_idx;
    const geo::Point2 p_in = projection.Project(target_trace.position(entry));
    const util::Timestamp t_in = target_trace.time(entry);
    const std::size_t window =
        std::min(config_.velocity_window, entry);
    const geo::Point2 p_before =
        projection.Project(target_trace.position(entry - window));
    const util::Timestamp t_before = target_trace.time(entry - window);
    geo::Point2 velocity{};
    if (t_in > t_before) {
      velocity = (p_in - p_before) / static_cast<double>(t_in - t_before);
    }

    // --- Ground truth: which published identity continues the target? ---
    // First original fix strictly after the passage and outside the zone.
    std::size_t continuation_idx = passage.exit_idx + 1;
    while (continuation_idx < target_trace.size() &&
           geo::Distance(
               projection.Project(target_trace.position(continuation_idx)),
               zone_center) <= zone_radius_m) {
      ++continuation_idx;
    }
    if (continuation_idx >= target_trace.size()) continue;  // ends in zone
    const model::Event continuation = target_trace.event(continuation_idx);
    model::UserId truth = model::kInvalidUser;
    for (const model::TraceView& pub : published.traces()) {
      for (std::size_t k = 0; k < pub.size(); ++k) {
        if (pub.time(k) == continuation.time &&
            geo::HaversineDistance(pub.position(k), continuation.position) <
                1.0) {
          truth = pub.user();
          break;
        }
      }
      if (truth != model::kInvalidUser) break;
    }
    if (truth == model::kInvalidUser) continue;  // continuation suppressed

    // --- Prediction & candidate adoption. ---
    TrackingOutcome outcome;
    outcome.target = target_trace.user();
    outcome.truth = truth;
    double best_error = std::numeric_limits<double>::infinity();
    for (const model::TraceView& pub : published.traces()) {
      // First published fix after t_in that is outside the zone: the
      // candidate exit of this pseudonym.
      for (std::size_t k = 0; k < pub.size(); ++k) {
        const util::Timestamp time = pub.time(k);
        if (time <= t_in) continue;
        if (time - t_in > config_.max_transit_s) break;
        const geo::Point2 p = projection.Project(pub.position(k));
        if (geo::Distance(p, zone_center) <= zone_radius_m) continue;
        const geo::Point2 predicted =
            p_in + velocity * static_cast<double>(time - t_in);
        const double error = geo::Distance(p, predicted);
        if (error < best_error) {
          best_error = error;
          outcome.followed = pub.user();
          outcome.error_m = error;
        }
        break;  // only the first exit fix of this pseudonym
      }
    }
    outcome.lost = !(best_error <= config_.gate_radius_m);
    outcomes.push_back(outcome);
  }
  return outcomes;
}

double MultiTargetTracker::ConfusionRate(
    const std::vector<TrackingOutcome>& outcomes) {
  std::size_t tracked = 0;
  std::size_t confused = 0;
  for (const auto& o : outcomes) {
    if (o.lost) continue;
    ++tracked;
    if (o.followed != o.truth) ++confused;
  }
  return tracked == 0 ? 0.0
                      : static_cast<double>(confused) /
                            static_cast<double>(tracked);
}

}  // namespace mobipriv::attacks
