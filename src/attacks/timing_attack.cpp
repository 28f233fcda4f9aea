#include "attacks/timing_attack.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "geo/distance.h"

namespace mobipriv::attacks {
namespace {

/// The hole a published stream shows across the zone: indices of the fix
/// just before and just after the zone passage.
struct StreamHole {
  std::size_t before = 0;
  std::size_t after = 0;
  bool found = false;
};

/// Finds the first consecutive fix pair whose connecting segment passes
/// within the zone while neither endpoint is inside (the suppressed hole).
StreamHole FindHole(const model::TraceView& trace,
                    const geo::LocalProjection& projection,
                    geo::Point2 center, double radius) {
  StreamHole hole;
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    const geo::Point2 a = projection.Project(trace.position(i));
    const geo::Point2 b = projection.Project(trace.position(i + 1));
    if (geo::Distance(a, center) <= radius) continue;
    if (geo::Distance(b, center) <= radius) continue;
    if (geo::DistanceToSegment(center, a, b) <= radius) {
      hole.before = i;
      hole.after = i + 1;
      hole.found = true;
      return hole;
    }
  }
  return hole;
}

}  // namespace

TimingAttack::TimingAttack(TimingAttackConfig config) : config_(config) {}

std::vector<ZoneCrossing> TimingAttack::ObserveCrossings(
    const model::DatasetView& original, const model::DatasetView& published,
    const geo::LocalProjection& projection, geo::Point2 zone_center,
    double zone_radius_m) const {
  std::vector<ZoneCrossing> crossings;
  for (const model::TraceView& stream : published.traces()) {
    const StreamHole hole =
        FindHole(stream, projection, zone_center, zone_radius_m);
    if (!hole.found) continue;
    ZoneCrossing crossing;
    crossing.entry_pseudonym = stream.user();
    crossing.entry_time = stream.time(hole.before);
    crossing.exit_time = stream.time(hole.after);
    if (crossing.exit_time - crossing.entry_time > config_.max_transit_s) {
      continue;
    }

    // Ground truth: which physical user made this entry? The entry fix is
    // an unmodified original event — find its original trace, then the
    // published pseudonym whose stream contains that user's first
    // post-entry fix outside the zone.
    const model::Event entry_event = stream.event(hole.before);
    crossing.true_exit = model::kInvalidUser;
    for (const model::TraceView& orig : original.traces()) {
      bool owns_entry = false;
      std::optional<model::Event> continuation;
      for (std::size_t i = 0; i < orig.size(); ++i) {
        if (orig.time(i) == entry_event.time &&
            geo::HaversineDistance(orig.position(i), entry_event.position) <
                1.0) {
          owns_entry = true;
          // First later fix outside the zone is the continuation.
          for (std::size_t j = i + 1; j < orig.size(); ++j) {
            const geo::Point2 p = projection.Project(orig.position(j));
            if (geo::Distance(p, zone_center) > zone_radius_m) {
              continuation = orig.event(j);
              break;
            }
          }
          break;
        }
      }
      if (!owns_entry) continue;
      if (continuation) {
        for (const model::TraceView& candidate : published.traces()) {
          bool contains = false;
          for (std::size_t k = 0; k < candidate.size(); ++k) {
            if (candidate.time(k) == continuation->time &&
                geo::HaversineDistance(candidate.position(k),
                                       continuation->position) < 1.0) {
              contains = true;
              break;
            }
          }
          if (contains) {
            crossing.true_exit = candidate.user();
            break;
          }
        }
      }
      break;
    }
    if (crossing.true_exit != model::kInvalidUser) {
      crossings.push_back(crossing);
    }
  }
  return crossings;
}

std::vector<TimingMatch> TimingAttack::Match(
    std::vector<ZoneCrossing> crossings) const {
  std::vector<TimingMatch> matches;
  if (crossings.empty()) return matches;

  // Typical transit: median of the label-paired transits (observable).
  std::vector<double> transits;
  transits.reserve(crossings.size());
  for (const auto& c : crossings) {
    transits.push_back(static_cast<double>(c.exit_time - c.entry_time));
  }
  std::sort(transits.begin(), transits.end());
  const double typical = transits[transits.size() / 2];

  // Greedy assignment: entries in time order, each takes the unused exit
  // whose transit deviates least from typical.
  std::sort(crossings.begin(), crossings.end(),
            [](const ZoneCrossing& a, const ZoneCrossing& b) {
              return a.entry_time < b.entry_time;
            });
  std::vector<bool> exit_used(crossings.size(), false);
  for (const auto& entry : crossings) {
    TimingMatch match;
    match.entry_pseudonym = entry.entry_pseudonym;
    match.true_exit = entry.true_exit;
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_exit = crossings.size();
    for (std::size_t x = 0; x < crossings.size(); ++x) {
      if (exit_used[x]) continue;
      const auto transit = crossings[x].exit_time - entry.entry_time;
      if (transit < 0 || transit > config_.max_transit_s) continue;
      const double deviation =
          std::abs(static_cast<double>(transit) - typical);
      if (deviation < best) {
        best = deviation;
        best_exit = x;
      }
    }
    if (best_exit < crossings.size()) {
      exit_used[best_exit] = true;
      match.matched_exit = crossings[best_exit].entry_pseudonym;
      match.confidence = 1.0 / (1.0 + best);
    }
    matches.push_back(match);
  }
  return matches;
}

double TimingAttack::Accuracy(const std::vector<TimingMatch>& matches) {
  if (matches.empty()) return 0.0;
  std::size_t correct = 0;
  for (const auto& m : matches) {
    if (m.matched_exit == m.true_exit &&
        m.matched_exit != model::kInvalidUser) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(matches.size());
}

}  // namespace mobipriv::attacks
