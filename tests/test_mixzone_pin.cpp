// Pins MixZone bit for bit: the published store and the full report
// (encounter count, zone centres, occurrences, swaps, suppression and
// per-occurrence details), on dense synthetic worlds
// where greedy zone placement order matters and on small adversarial
// worlds (unsorted traces, duplicate timestamps, same-user co-locations,
// pairs at exactly the zone radius and exactly the time window, NaN,
// infinite and huge coordinates). Any change to detection, placement or
// reassembly that moves one bit of either fails here; a mismatch prints
// the copy-pastable row for a deliberate re-pin.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/output_cache.h"
#include "geo/bounding_box.h"
#include "geo/projection.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/registry.h"
#include "model/dataset.h"
#include "model/event_store.h"
#include "synth/population.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv::mech {
namespace {

/// FNV-1a 64 over 64-bit words, little-endian byte order.
class Fnv {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every report field, in declaration order, plus the caller rng's next
/// draw (the mechanism's rng consumption).
std::uint64_t ReportDigest(const MixZoneReport& report, util::Rng& rng) {
  Fnv fnv;
  fnv.Add(report.encounters);
  fnv.Add(report.zones.size());
  for (const MixZoneInfo& zone : report.zones) {
    fnv.AddDouble(zone.center.x);
    fnv.AddDouble(zone.center.y);
    fnv.AddDouble(zone.radius_m);
    fnv.Add(zone.occurrences);
    fnv.Add(zone.max_anonymity_set);
  }
  fnv.Add(report.occurrence_details.size());
  for (const OccurrenceInfo& detail : report.occurrence_details) {
    fnv.Add(detail.zone_index);
    fnv.Add(detail.users.size());
    for (const model::UserId user : detail.users) fnv.Add(user);
    fnv.Add(detail.swapped ? 1 : 0);
  }
  fnv.Add(report.occurrences);
  fnv.Add(report.swaps_applied);
  fnv.Add(report.suppressed_events);
  fnv.Add(report.total_events);
  fnv.Add(rng.NextU64());
  return fnv.value();
}

struct Pin {
  const char* name;
  std::uint64_t store;
  std::uint64_t report;
};

/// Runs `config` on `input` with Rng(seed) at 1 and 4 workers and checks
/// both runs against `pin`; also checks CountEncounters and Detect
/// against the report, and event conservation.
void ExpectPinned(const Pin& pin, const MixZoneConfig& config,
                  const model::DatasetView& input, std::uint64_t seed) {
  const MixZone mixzone(config);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const util::ScopedParallelism scope(threads);
    const std::string context =
        std::string(pin.name) + " @threads=" + std::to_string(threads);
    util::Rng rng(seed);
    MixZoneReport report;
    const model::EventStore store =
        mixzone.ApplyToStoreWithReport(input, rng, report);
    const std::uint64_t store_digest =
        core::OutputCache::FingerprintView(store.View());
    const std::uint64_t report_digest = ReportDigest(report, rng);
    EXPECT_EQ(store_digest, pin.store) << context;
    EXPECT_EQ(report_digest, pin.report) << context;
    if (store_digest != pin.store || report_digest != pin.report) {
      std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n", pin.name,
                  static_cast<unsigned long long>(store_digest),
                  static_cast<unsigned long long>(report_digest));
    }
    EXPECT_EQ(mixzone.CountEncounters(input), report.encounters) << context;
    // Detection alone reports the same zones and occurrences, with nothing
    // swapped or suppressed.
    MixZoneReport unswapped = report;
    unswapped.swaps_applied = 0;
    unswapped.suppressed_events = 0;
    for (OccurrenceInfo& detail : unswapped.occurrence_details) {
      detail.swapped = false;
    }
    util::Rng detect_rng(seed);
    util::Rng unswapped_rng(seed);
    EXPECT_EQ(ReportDigest(mixzone.Detect(input), detect_rng),
              ReportDigest(unswapped, unswapped_rng))
        << context;
    EXPECT_EQ(store.EventCount() + report.suppressed_events,
              input.EventCount())
        << context;
  }
}

// ---- Dense synthetic worlds -------------------------------------------

const model::EventStore& DenseWorld(bool smoothed) {
  static const model::EventStore* const raw = [] {
    synth::PopulationConfig config;
    config.agents = 300;
    config.days = 1;
    config.seed = 2024;
    const synth::SyntheticWorld world(config);
    return new model::EventStore(
        model::EventStore::FromDataset(world.dataset()));
  }();
  static const model::EventStore* const smooth = [] {
    util::Rng rng(17);
    return new model::EventStore(
        CreateMechanism("speed_smoothing")->ApplyToStore(raw->View(), rng));
  }();
  return smoothed ? *smooth : *raw;
}

struct DensePin {
  Pin pin;
  bool smoothed;
  double radius_m;
  util::Timestamp window_s;
  std::size_t min_users;
};

constexpr DensePin kDensePins[] = {
    {{"raw r=50 w=60 k=2", 0x555e6fa3b360afe6ULL,
      0xab2e11f2e2ed38edULL}, false, 50.0, 60, 2},
    {{"raw r=50 w=600 k=3", 0x0f33c59cc684e38eULL,
      0xb7772b1995a456e0ULL}, false, 50.0, 600, 3},
    {{"raw r=150 w=60 k=3", 0xfe37fc69cdb846e3ULL,
      0xf5fdd726dfb437f7ULL}, false, 150.0, 60, 3},
    {{"raw r=150 w=600 k=2", 0x1ba14c6ca4b8d96aULL,
      0xd42b872120f01ad9ULL}, false, 150.0, 600, 2},
    {{"raw r=200 w=60 k=2", 0x3049368c08e25963ULL,
      0xb87b9c5877fad10cULL}, false, 200.0, 60, 2},
    {{"raw r=200 w=600 k=3", 0x2b3a01cb6d5c7934ULL,
      0xfa12f78cb32a0711ULL}, false, 200.0, 600, 3},
    {{"smooth r=50 w=60 k=3", 0x5c95396564486ba2ULL,
      0x554c78ce18bba135ULL}, true, 50.0, 60, 3},
    {{"smooth r=50 w=600 k=2", 0x4c94c78c862f45afULL,
      0x0f5a9dd03cbee084ULL}, true, 50.0, 600, 2},
    {{"smooth r=150 w=60 k=2", 0x9d0988ee06ac362fULL,
      0x2a8179007a056522ULL}, true, 150.0, 60, 2},
    {{"smooth r=150 w=600 k=3", 0x1e5e143e617de2b9ULL,
      0x430ee0964998f5e4ULL}, true, 150.0, 600, 3},
    {{"smooth r=200 w=60 k=3", 0x9d7ed44251a3a803ULL,
      0x7eac2b085d4eac11ULL}, true, 200.0, 60, 3},
    {{"smooth r=200 w=600 k=2", 0xd9f442c0221bede7ULL,
      0x6d0961198b6fabc1ULL}, true, 200.0, 600, 2},
};

TEST(MixZonePin, DenseWorlds) {
  for (const DensePin& row : kDensePins) {
    MixZoneConfig config;
    config.zone_radius_m = row.radius_m;
    config.time_window_s = row.window_s;
    config.min_users = row.min_users;
    ExpectPinned(row.pin, config, DenseWorld(row.smoothed).View(), 11);
  }
}

// ---- Adversarial small worlds -----------------------------------------

/// Two far corners that fix the dataset's bounding box — and with it the
/// mechanism's projection origin — whatever lies between them.
void AddAnchors(model::Dataset& dataset) {
  dataset.AddTraceForUser("anchor", {{{45.70, 4.80}, 0}, {{45.80, 4.90}, 0}});
}

geo::LocalProjection AnchoredProjection() {
  geo::GeoBoundingBox box;
  box.Extend(geo::LatLng{45.70, 4.80});
  box.Extend(geo::LatLng{45.80, 4.90});
  return geo::LocalProjection(box.Center());
}

double PlanarDistanceSq(const geo::LocalProjection& projection, geo::LatLng a,
                        geo::LatLng b) {
  const geo::Point2 pa = projection.Project(a);
  const geo::Point2 pb = projection.Project(b);
  const double dx = pb.x - pa.x;
  const double dy = pb.y - pa.y;
  return dx * dx + dy * dy;
}

/// The first point, walking east from just short of the radius due north
/// of `a`, whose planar squared distance from `a` reaches radius² bit for
/// bit (the detector's inclusive `d2 <= r2` boundary) — or, with
/// `beyond`, exceeds it. The latitude bisection leaves d2 just below r²;
/// the longitude bisection then closes the gap in steps far finer than one
/// ulp of r².
geo::LatLng PointAtRadius(const geo::LocalProjection& projection,
                          geo::LatLng a, double radius, bool beyond) {
  const double r_sq = radius * radius;
  double lo = a.lat;
  double hi = a.lat + 2.0 * radius / 111000.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = lo + (hi - lo) / 2.0;
    if (mid == lo || mid == hi) break;
    (PlanarDistanceSq(projection, a, {mid, a.lng}) < r_sq ? lo : hi) = mid;
  }
  const double lat = lo;  // largest probed latitude still short of r
  double lng_lo = a.lng;
  double lng_hi = a.lng + 1e-4;
  for (int i = 0; i < 200; ++i) {
    const double mid = lng_lo + (lng_hi - lng_lo) / 2.0;
    if (mid == lng_lo || mid == lng_hi) break;
    const double d2 = PlanarDistanceSq(projection, a, {lat, mid});
    ((beyond ? d2 <= r_sq : d2 < r_sq) ? lng_lo : lng_hi) = mid;
  }
  return {lat, lng_hi};
}

/// Unsorted traces, duplicate timestamps and same-user co-locations among
/// a crowd that keeps meeting around one square.
model::Dataset UnsortedWorld() {
  model::Dataset dataset;
  AddAnchors(dataset);
  const geo::LocalProjection projection = AnchoredProjection();
  util::Rng rng(5);
  for (int u = 0; u < 8; ++u) {
    std::vector<model::Event> events;
    for (int i = 0; i < 60; ++i) {
      const double x = rng.Uniform(-400.0, 400.0);
      const double y = rng.Uniform(-400.0, 400.0);
      // Duplicate timestamps: pairs of fixes share a time.
      const auto t = static_cast<util::Timestamp>(1000 + 45 * (i / 2) +
                                                  (u % 3) * 20);
      events.push_back({projection.Unproject({x, y}), t});
    }
    // Unsorted: reversed, then a few swaps.
    std::reverse(events.begin(), events.end());
    for (int k = 0; k + 7 < static_cast<int>(events.size()); k += 7) {
      std::swap(events[static_cast<std::size_t>(k)],
                events[static_cast<std::size_t>(k + 5)]);
    }
    dataset.AddTraceForUser("u" + std::to_string(u), events);
    if (u % 3 == 0) {
      // The same user again, co-located with itself: never an encounter.
      dataset.AddTraceForUser("u" + std::to_string(u), std::move(events));
    }
  }
  return dataset;
}

/// Pairs exactly at the radius, |dt| exactly the window (either sign) or
/// one second past it (their second fixes are then exactly the window
/// apart), and pairs one longitude step past the radius, spread so each
/// pair is its own candidate zone.
model::Dataset BoundaryWorld(double radius, util::Timestamp window) {
  model::Dataset dataset;
  AddAnchors(dataset);
  const geo::LocalProjection projection = AnchoredProjection();
  int pair = 0;
  const auto add_pair = [&](geo::LatLng a, geo::LatLng b,
                            util::Timestamp dt) {
    const util::Timestamp t = 5000 + 37 * pair;
    const std::string id = std::to_string(pair++);
    dataset.AddTraceForUser("a" + id, {{a, t}, {a, t + 1}});
    dataset.AddTraceForUser("b" + id, {{b, t + dt}, {b, t + dt + 1}});
  };
  for (int k = 0; k < 6; ++k) {
    const geo::LatLng a = projection.Unproject(
        {-1500.0 + 600.0 * k, -1200.0 + 97.0 * k});
    const geo::LatLng b = PointAtRadius(projection, a, radius, false);
    EXPECT_EQ(PlanarDistanceSq(projection, a, b), radius * radius);
    add_pair(a, b, k % 2 == 0 ? window : -window);
    const geo::LatLng a2 = projection.Unproject(
        {-1500.0 + 600.0 * k, 1200.0 - 97.0 * k});
    add_pair(a2, PointAtRadius(projection, a2, radius, false),
             k % 2 == 0 ? window + 1 : -(window + 1));
    const geo::LatLng a3 = projection.Unproject(
        {-1500.0 + 600.0 * k, 97.0 * k});
    const geo::LatLng b3 = PointAtRadius(projection, a3, radius, true);
    EXPECT_GT(PlanarDistanceSq(projection, a3, b3), radius * radius);
    add_pair(a3, b3, 0);
  }
  return dataset;
}

/// A crowd meeting in one square, with `poison` applied to some fixes.
template <typename Poison>
model::Dataset PoisonedWorld(Poison poison) {
  model::Dataset dataset;
  AddAnchors(dataset);
  const geo::LocalProjection projection = AnchoredProjection();
  util::Rng rng(9);
  for (int u = 0; u < 6; ++u) {
    std::vector<model::Event> events;
    for (int i = 0; i < 20; ++i) {
      geo::LatLng p = projection.Unproject(
          {rng.Uniform(-200.0, 200.0), rng.Uniform(-200.0, 200.0)});
      poison(u, i, p);
      events.push_back({p, static_cast<util::Timestamp>(2000 + 30 * i)});
    }
    dataset.AddTraceForUser("p" + std::to_string(u), std::move(events));
  }
  return dataset;
}

model::Dataset NanWorld() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return PoisonedWorld([nan](int u, int i, geo::LatLng& p) {
    if ((u + i) % 5 == 0) p.lat = nan;
    if ((u + i) % 7 == 0) p.lng = nan;
  });
}

model::Dataset InfWorld() {
  const double inf = std::numeric_limits<double>::infinity();
  return PoisonedWorld([inf](int u, int i, geo::LatLng& p) {
    if ((u * 3 + i) % 11 == 0) p.lat = inf;
    if ((u + i) % 13 == 0) p.lng = -inf;
  });
}

model::Dataset HugeWorld() {
  return PoisonedWorld([](int u, int i, geo::LatLng& p) {
    if ((u + 2 * i) % 9 == 0) p.lat = 1e300;
    if ((u + i) % 10 == 0) p.lng = -1e300;
  });
}

struct AdversarialPin {
  Pin pin;
  model::Dataset (*world)();
  double radius_m;
  util::Timestamp window_s;
  std::size_t min_users;
};

constexpr AdversarialPin kAdversarialPins[] = {
    {{"unsorted r=150 w=600 k=2", 0xa813a599c2132002ULL,
      0x7d03f930aaddb26eULL}, UnsortedWorld, 150.0, 600, 2},
    {{"unsorted r=50 w=60 k=3", 0x2d6c510b3bf0a3f5ULL,
      0x4d95d635d8f7dce0ULL}, UnsortedWorld, 50.0, 60, 3},
    {{"boundary r=150 w=600 k=2", 0x481081a03d8df6c4ULL,
      0x89418ed21afc46faULL},
     [] { return BoundaryWorld(150.0, 600); }, 150.0, 600, 2},
    {{"boundary r=50 w=60 k=2", 0x629b49d779640356ULL,
      0x21127168718da3cbULL},
     [] { return BoundaryWorld(50.0, 60); }, 50.0, 60, 2},
    {{"nan r=150 w=600 k=2", 0x7583b180f57ae15bULL,
      0xac1184f2e7fce7baULL}, NanWorld, 150.0, 600, 2},
    {{"inf r=150 w=600 k=2", 0x0124c9224aa1d0d5ULL,
      0xfb8b4127792392b2ULL}, InfWorld, 150.0, 600, 2},
    {{"huge r=150 w=600 k=2", 0xe605fc44ac0377f7ULL,
      0xa95edd4ef547ed98ULL}, HugeWorld, 150.0, 600, 2},
};

TEST(MixZonePin, AdversarialWorlds) {
  for (const AdversarialPin& row : kAdversarialPins) {
    MixZoneConfig config;
    config.zone_radius_m = row.radius_m;
    config.time_window_s = row.window_s;
    config.min_users = row.min_users;
    const model::Dataset world = row.world();
    ExpectPinned(row.pin, config, world, 3);
  }
}

}  // namespace
}  // namespace mobipriv::mech
