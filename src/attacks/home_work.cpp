#include "attacks/home_work.h"

#include <algorithm>
#include <limits>
#include <map>

namespace mobipriv::attacks {
namespace {

/// Wide enough for every day start and overlap sum the full Timestamp
/// range produces.
using Wide = __int128;

Wide FloorDiv(Wide a, Wide b) {
  const Wide q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

/// Seconds of [from, to] inside [k * D + o0, k * D + o1], summed over the
/// days k in [first, last] (D = seconds per day). The days whose window
/// lies wholly inside [from, to] form one run and add o1 - o0 each; only
/// the days around it, where the window is cut, are measured one by one.
/// For windows within a day that is at most a few days at each end.
Wide WindowOverlapOverDays(Wide from, Wide to, Wide first, Wide last,
                           Wide o0, Wide o1) {
  if (o1 <= o0 || first > last) return 0;
  constexpr Wide kDay = util::kSecondsPerDay;
  const auto cut = [&](Wide k) {
    return std::max<Wide>(
        0, std::min(to, k * kDay + o1) - std::max(from, k * kDay + o0));
  };
  // k * D + o0 >= from  <=>  k >= ceil((from - o0) / D), and
  // k * D + o1 <= to    <=>  k <= floor((to - o1) / D).
  const Wide inner_first = std::max(first, -FloorDiv(o0 - from, kDay));
  const Wide inner_last = std::min(last, FloorDiv(to - o1, kDay));
  Wide total = 0;
  if (inner_first > inner_last) {
    for (Wide k = first; k <= last; ++k) total += cut(k);
    return total;
  }
  total = (inner_last - inner_first + 1) * (o1 - o0);
  for (Wide k = first; k < inner_first; ++k) total += cut(k);
  for (Wide k = inner_last + 1; k <= last; ++k) total += cut(k);
  return total;
}

}  // namespace

HomeWorkAttack::HomeWorkAttack(HomeWorkConfig config)
    : config_(std::move(config)) {}

util::Timestamp HomeWorkAttack::DailyWindowOverlap(
    util::Timestamp from, util::Timestamp to, util::Timestamp window_start,
    util::Timestamp window_end) {
  if (to <= from) return 0;
  // Every day the interval touches, plus the one before for windows that
  // wrap midnight into it. A wrapping window, e.g. 21:00 -> 06:00, is the
  // evening part of each day and the morning part of the next.
  constexpr Wide kDay = util::kSecondsPerDay;
  const Wide first = FloorDiv(from, kDay) - 1;
  const Wide last = FloorDiv(to, kDay);
  Wide total = 0;
  if (window_start < window_end) {
    total = WindowOverlapOverDays(from, to, first, last, window_start,
                                  window_end);
  } else {
    total = WindowOverlapOverDays(from, to, first, last, window_start, kDay) +
            WindowOverlapOverDays(from, to, first, last, kDay,
                                  kDay + Wide{window_end});
  }
  // An interval of ~2^64 s overlaps a daily window for more than
  // INT64_MAX seconds.
  return static_cast<util::Timestamp>(std::min<Wide>(
      total, std::numeric_limits<util::Timestamp>::max()));
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
