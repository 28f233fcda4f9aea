#include "attacks/home_work.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/anonymizer.h"
#include "synth/population.h"
#include "util/rng.h"
#include "util/time_utils.h"

namespace mobipriv::attacks {
namespace {

TEST(DailyWindowOverlap, SimpleDaytimeWindow) {
  // Window 09:00-17:00; interval 08:00-10:00 on day 0 -> 1 h overlap.
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(8 * 3600, 10 * 3600,
                                               9 * 3600, 17 * 3600),
            3600);
  // Fully inside.
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(10 * 3600, 12 * 3600,
                                               9 * 3600, 17 * 3600),
            7200);
  // Disjoint.
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(18 * 3600, 20 * 3600,
                                               9 * 3600, 17 * 3600),
            0);
}

TEST(DailyWindowOverlap, WrappingNightWindow) {
  // Window 21:00-06:00. Interval 22:00 day0 -> 07:00 day1 covers
  // 22:00-24:00 (2 h) + 00:00-06:00 (6 h) = 8 h.
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(
                22 * 3600, 24 * 3600 + 7 * 3600, 21 * 3600, 6 * 3600),
            8 * 3600);
  // Early morning only: 04:00-05:00 -> 1 h.
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(4 * 3600, 5 * 3600,
                                               21 * 3600, 6 * 3600),
            3600);
}

TEST(DailyWindowOverlap, MultiDayInterval) {
  // 48 h interval with a daily 8 h work window -> 16 h.
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(0, 2 * 86400, 9 * 3600,
                                               17 * 3600),
            16 * 3600);
}

TEST(DailyWindowOverlap, EmptyInterval) {
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(100, 100, 0, 86400), 0);
}

/// The per-day loop DailyWindowOverlap used to run: one iteration per day
/// the interval touches. Only valid where no sum or day start overflows.
util::Timestamp DailyWindowOverlapByDays(util::Timestamp from,
                                         util::Timestamp to,
                                         util::Timestamp window_start,
                                         util::Timestamp window_end) {
  if (to <= from) return 0;
  const auto overlap = [](util::Timestamp a0, util::Timestamp a1,
                          util::Timestamp b0, util::Timestamp b1) {
    return std::max<util::Timestamp>(0,
                                     std::min(a1, b1) - std::max(a0, b0));
  };
  util::Timestamp total = 0;
  const util::Timestamp first_day =
      util::StartOfDay(from) - util::kSecondsPerDay;
  const util::Timestamp last_day = util::StartOfDay(to);
  for (util::Timestamp day = first_day; day <= last_day;
       day += util::kSecondsPerDay) {
    if (window_start < window_end) {
      total += overlap(from, to, day + window_start, day + window_end);
    } else {
      total += overlap(from, to, day + window_start,
                       day + util::kSecondsPerDay);
      total += overlap(from, to, day + util::kSecondsPerDay,
                       day + util::kSecondsPerDay + window_end);
    }
  }
  return total;
}

TEST(DailyWindowOverlap, MatchesThePerDayLoop) {
  // Random intervals of up to 40 days around the epoch, on both sides of
  // it, against windows anywhere in the day: wrapping (start > end),
  // full-day (start == end) and ordinary ones, plus windows at the day's
  // edges.
  util::Rng rng(20261019);
  constexpr util::Timestamp kDay = util::kSecondsPerDay;
  for (int i = 0; i < 20000; ++i) {
    const util::Timestamp from = rng.UniformInt(-400 * kDay, 400 * kDay);
    const util::Timestamp to =
        from + rng.UniformInt(i % 7 == 0 ? -kDay : 0, 40 * kDay);
    util::Timestamp start = rng.UniformInt(0, kDay);
    util::Timestamp end = rng.UniformInt(0, kDay);
    if (i % 11 == 0) end = start;
    if (i % 13 == 0) start = 0;
    if (i % 17 == 0) end = kDay;
    ASSERT_EQ(HomeWorkAttack::DailyWindowOverlap(from, to, start, end),
              DailyWindowOverlapByDays(from, to, start, end))
        << "from=" << from << " to=" << to << " window=[" << start << ", "
        << end << ")";
  }
}

TEST(DailyWindowOverlap, ExtremeSpansFinishWithoutOverflow) {
  constexpr util::Timestamp kMin = std::numeric_limits<util::Timestamp>::min();
  constexpr util::Timestamp kMax = std::numeric_limits<util::Timestamp>::max();
  constexpr util::Timestamp kDay = util::kSecondsPerDay;
  // 8 h a day over ~1.07e14 days is ~3.1e18 s; the whole range saturates.
  const util::Timestamp half = HomeWorkAttack::DailyWindowOverlap(
      kMin / 2, kMax / 2, 9 * 3600, 17 * 3600);
  EXPECT_GT(half, kMax / 3 - 8 * 3600 * 2);
  EXPECT_LT(half, kMax / 3 + 8 * 3600 * 2);
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(kMin, kMax, 19 * 3600,
                                               9 * 3600),
            kMax);
  // Intervals touching the ends of the range.
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(kMax - 10 * kDay, kMax, 0,
                                               kDay),
            10 * kDay);
  EXPECT_EQ(HomeWorkAttack::DailyWindowOverlap(kMin, kMin + 10 * kDay, 0,
                                               kDay),
            10 * kDay);
}

struct WorldFixture {
  WorldFixture() {
    synth::PopulationConfig config;
    config.agents = 6;
    config.days = 2;
    config.seed = 1234;
    world = std::make_unique<synth::SyntheticWorld>(config);
  }
  std::unique_ptr<synth::SyntheticWorld> world;
};

TEST(HomeWorkAttack, RecoversHomesFromRawData) {
  const WorldFixture f;
  const HomeWorkAttack attack;
  const auto frame = DatasetProjection(f.world->dataset());
  const auto guesses = attack.Infer(f.world->dataset(), frame);
  ASSERT_EQ(guesses.size(), 6u);
  std::size_t homes_found = 0;
  for (const auto& guess : guesses) {
    if (!guess.home.has_value()) continue;
    // Compare against the true home site.
    const auto& profile = f.world->profiles()[guess.user];
    const geo::Point2 truth = frame.Project(f.world->projection().Unproject(
        f.world->universe().site(profile.home).position));
    if (geo::Distance(*guess.home, truth) < 300.0) ++homes_found;
  }
  // The overnight dwell tails sit at home in every session: most homes leak.
  EXPECT_GE(homes_found, 4u);
}

TEST(HomeWorkAttack, RecoversWorkplacesFromRawData) {
  const WorldFixture f;
  const HomeWorkAttack attack;
  const auto frame = DatasetProjection(f.world->dataset());
  const auto guesses = attack.Infer(f.world->dataset(), frame);
  std::size_t works_found = 0;
  for (const auto& guess : guesses) {
    if (!guess.work.has_value()) continue;
    const auto& profile = f.world->profiles()[guess.user];
    const geo::Point2 truth = frame.Project(f.world->projection().Unproject(
        f.world->universe().site(profile.work).position));
    if (geo::Distance(*guess.work, truth) < 300.0) ++works_found;
  }
  EXPECT_GE(works_found, 4u);
}

TEST(HomeWorkAttack, DefeatedByThePipeline) {
  const WorldFixture f;
  const core::Anonymizer anonymizer;
  util::Rng rng(5);
  const model::Dataset published =
      anonymizer.Apply(f.world->dataset(), rng);
  const HomeWorkAttack attack;
  const auto frame = DatasetProjection(f.world->dataset());
  const auto guesses = attack.Infer(published, frame);
  std::size_t any_guess = 0;
  for (const auto& guess : guesses) {
    if (guess.home.has_value() || guess.work.has_value()) ++any_guess;
  }
  // Constant speed leaves no overnight/working-hour stays to label.
  EXPECT_EQ(any_guess, 0u);
}

}  // namespace
}  // namespace mobipriv::attacks
