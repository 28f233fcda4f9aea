#include "attacks/home_work.h"

#include <algorithm>
#include <map>

namespace mobipriv::attacks {
namespace {

/// Overlap of the absolute intervals [a0, a1] and [b0, b1], >= 0.
util::Timestamp Overlap(util::Timestamp a0, util::Timestamp a1,
                        util::Timestamp b0, util::Timestamp b1) {
  return std::max<util::Timestamp>(
      0, std::min(a1, b1) - std::max(a0, b0));
}

}  // namespace

HomeWorkAttack::HomeWorkAttack(HomeWorkConfig config)
    : config_(std::move(config)) {}

util::Timestamp HomeWorkAttack::DailyWindowOverlap(
    util::Timestamp from, util::Timestamp to, util::Timestamp window_start,
    util::Timestamp window_end) {
  if (to <= from) return 0;
  util::Timestamp total = 0;
  // Consider each day the interval touches (plus the one before, for
  // windows that wrap midnight into it).
  const util::Timestamp first_day =
      util::StartOfDay(from) - util::kSecondsPerDay;
  const util::Timestamp last_day = util::StartOfDay(to);
  for (util::Timestamp day = first_day; day <= last_day;
       day += util::kSecondsPerDay) {
    if (window_start < window_end) {
      total += Overlap(from, to, day + window_start, day + window_end);
    } else {
      // Wrapping window, e.g. 21:00 -> 06:00: the evening part of this day
      // and the morning part of the next day.
      total += Overlap(from, to, day + window_start,
                       day + util::kSecondsPerDay);
      total += Overlap(from, to, day + util::kSecondsPerDay,
                       day + util::kSecondsPerDay + window_end);
    }
  }
  return total;
}

std::vector<HomeWorkGuess> HomeWorkAttack::Infer(
    const model::DatasetView& dataset,
    const geo::LocalProjection& projection) const {
  const PoiExtractor extractor(config_.extraction);
  struct Candidate {
    geo::Point2 weighted_sum{};
    double weight = 0.0;
  };
  struct UserState {
    std::map<int, Candidate> home_candidates;  // keyed by rough cell
    std::map<int, Candidate> work_candidates;
  };
  // Rough 500 m cell key so repeated stays at one place accumulate.
  const auto cell_key = [](geo::Point2 p) {
    const auto cx = static_cast<int>(std::floor(p.x / 500.0));
    const auto cy = static_cast<int>(std::floor(p.y / 500.0));
    return cx * 100003 + cy;
  };

  std::map<model::UserId, UserState> states;
  for (const auto& trace : dataset.traces()) {
    states.try_emplace(trace.user());
    for (const auto& stay : extractor.ExtractStays(trace, projection)) {
      const auto night = DailyWindowOverlap(
          stay.arrival, stay.departure, config_.night_start,
          config_.night_end);
      const auto work = DailyWindowOverlap(stay.arrival, stay.departure,
                                           config_.work_start,
                                           config_.work_end);
      auto& state = states[trace.user()];
      if (night > 0) {
        auto& cand = state.home_candidates[cell_key(stay.centroid)];
        cand.weighted_sum =
            cand.weighted_sum + stay.centroid * static_cast<double>(night);
        cand.weight += static_cast<double>(night);
      }
      if (work > 0) {
        auto& cand = state.work_candidates[cell_key(stay.centroid)];
        cand.weighted_sum =
            cand.weighted_sum + stay.centroid * static_cast<double>(work);
        cand.weight += static_cast<double>(work);
      }
    }
  }

  std::vector<HomeWorkGuess> guesses;
  guesses.reserve(states.size());
  for (const auto& [user, state] : states) {
    HomeWorkGuess guess;
    guess.user = user;
    const auto best = [](const std::map<int, Candidate>& candidates)
        -> std::optional<geo::Point2> {
      const Candidate* top = nullptr;
      for (const auto& [key, cand] : candidates) {
        if (top == nullptr || cand.weight > top->weight) top = &cand;
      }
      if (top == nullptr || top->weight <= 0.0) return std::nullopt;
      return top->weighted_sum / top->weight;
    };
    guess.home = best(state.home_candidates);
    guess.work = best(state.work_candidates);
    guesses.push_back(guess);
  }
  return guesses;
}

}  // namespace mobipriv::attacks
