// Home/work inference attack: the most damaging instance of POI extraction.
// Home is where a user dwells overnight, work where she dwells on weekday
// working hours; the (home, work) pair is a quasi-identifier (Golle &
// Partridge showed coarse pairs identify most US workers). The attack
// labels each extracted stay by its time-of-day and takes the
// dwell-weighted top candidate per role.
#pragma once

#include <optional>

#include "attacks/poi_extraction.h"
#include "model/dataset.h"

namespace mobipriv::attacks {

struct HomeWorkConfig {
  PoiExtractionConfig extraction;
  /// Stays overlapping [night_start, night_end) of any day count as
  /// home-time; stays inside working hours count as work-time. The home
  /// window is deliberately wide (evening arrival through morning
  /// departure): session-recorded data only shows home dwell around those
  /// edges, not the untracked middle of the night.
  util::Timestamp night_start = 19 * 3600;  ///< 19:00, seconds of day
  util::Timestamp night_end = 9 * 3600;     ///< 09:00 (wraps midnight)
  util::Timestamp work_start = 9 * 3600;
  util::Timestamp work_end = 17 * 3600;
};

struct HomeWorkGuess {
  model::UserId user = model::kInvalidUser;
  std::optional<geo::Point2> home;  ///< planar, attack frame
  std::optional<geo::Point2> work;
};

class HomeWorkAttack {
 public:
  explicit HomeWorkAttack(HomeWorkConfig config = {});

  /// One guess per user appearing in the dataset (users whose traces yield
  /// no night/work stays get nullopt fields — the defender's win).
  [[nodiscard]] std::vector<HomeWorkGuess> Infer(
      const model::DatasetView& dataset,
      const geo::LocalProjection& projection) const;

  /// Seconds of overlap between [from, to] and the daily window
  /// [window_start, window_end), handling windows that wrap midnight.
  /// Constant time for windows within a day, whatever the span; exact over
  /// the whole Timestamp range, saturating at INT64_MAX. Exposed for tests.
  [[nodiscard]] static util::Timestamp DailyWindowOverlap(
      util::Timestamp from, util::Timestamp to, util::Timestamp window_start,
      util::Timestamp window_end);

 private:
  HomeWorkConfig config_;
};

}  // namespace mobipriv::attacks
