#include "metrics/spatial_distortion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "geo/polyline.h"
#include "geo/projection.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv::metrics {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

model::Trace EastboundTrace(model::UserId user, double offset_north_m,
                            util::Timestamp t0 = 0) {
  const geo::LocalProjection projection(kOrigin);
  model::Trace trace;
  trace.set_user(user);
  for (int i = 0; i <= 20; ++i) {
    trace.Append({projection.Unproject({i * 100.0, offset_north_m}),
                  t0 + static_cast<util::Timestamp>(i * 60)});
  }
  return trace;
}

TEST(SynchronizedDeviation, ZeroForIdenticalTraces) {
  const auto trace = EastboundTrace(0, 0.0);
  const auto d = SynchronizedDeviation(trace, trace);
  ASSERT_EQ(d.size(), trace.size());
  for (const double x : d) EXPECT_NEAR(x, 0.0, 1e-6);
}

TEST(SynchronizedDeviation, ConstantOffset) {
  const auto original = EastboundTrace(0, 0.0);
  const auto shifted = EastboundTrace(0, 250.0);
  for (const double x : SynchronizedDeviation(original, shifted)) {
    EXPECT_NEAR(x, 250.0, 1.0);
  }
}

TEST(SynchronizedDeviation, CapturesTimeDistortion) {
  // Same geometry, but published twice as fast then stationary: at late
  // original times the published interpolation sits at the east end.
  const geo::LocalProjection projection(kOrigin);
  const auto original = EastboundTrace(0, 0.0);  // 100 m per 60 s
  model::Trace fast;
  fast.set_user(0);
  for (int i = 0; i <= 20; ++i) {
    fast.Append({projection.Unproject({i * 100.0, 0.0}),
                 static_cast<util::Timestamp>(i * 30)});
  }
  const auto d = SynchronizedDeviation(original, fast);
  // At t=600 the original is at 1000 m; 'fast' is already at 2000 m.
  EXPECT_NEAR(d[10], 1000.0, 5.0);
  // Geometry-only deviation stays zero.
  for (const double x : PathDeviation(original, fast)) {
    EXPECT_NEAR(x, 0.0, 1e-6);
  }
}

TEST(PathDeviation, MeasuresGeometricError) {
  const auto original = EastboundTrace(0, 0.0);
  const auto shifted = EastboundTrace(0, 100.0);
  for (const double x : PathDeviation(original, shifted)) {
    EXPECT_NEAR(x, 100.0, 0.5);
  }
}

TEST(Deviation, EmptyInputs) {
  const auto trace = EastboundTrace(0, 0.0);
  const model::Trace empty;
  EXPECT_TRUE(SynchronizedDeviation(empty, trace).empty());
  EXPECT_TRUE(SynchronizedDeviation(trace, empty).empty());
  EXPECT_TRUE(PathDeviation(empty, trace).empty());
}

TEST(MeasureDistortion, MatchesByUserAndOverlap) {
  model::Dataset original;
  original.InternUser("a");
  original.InternUser("b");
  original.AddTrace(EastboundTrace(0, 0.0));
  original.AddTrace(EastboundTrace(1, 5000.0));
  model::Dataset published;
  published.InternUser("a");
  published.InternUser("b");
  published.AddTrace(EastboundTrace(0, 100.0));   // a: shifted 100 m
  published.AddTrace(EastboundTrace(1, 5300.0));  // b: shifted 300 m
  const auto summary = MeasureDistortion(original, published);
  EXPECT_EQ(summary.compared_traces, 2u);
  EXPECT_EQ(summary.skipped_traces, 0u);
  EXPECT_NEAR(summary.path_m.mean, 200.0, 2.0);  // average of 100 and 300
}

TEST(MeasureDistortion, SkipsUnmatchedTraces) {
  model::Dataset original;
  original.InternUser("a");
  original.AddTrace(EastboundTrace(0, 0.0));
  model::Dataset published;  // user exists but no overlapping trace
  published.InternUser("a");
  published.AddTrace(EastboundTrace(0, 0.0, /*t0=*/999999));
  const auto summary = MeasureDistortion(original, published);
  EXPECT_EQ(summary.compared_traces, 0u);
  EXPECT_EQ(summary.skipped_traces, 1u);
  EXPECT_FALSE(summary.ToString().empty());
}

// --- Differential oracle: the brute-force scans MeasureDistortion replaced.

std::ptrdiff_t OracleMatch(const model::TraceView& original,
                           const model::DatasetView& published) {
  if (original.empty()) return -1;
  std::ptrdiff_t best = -1;
  util::Timestamp best_overlap = -1;
  const util::Timestamp original_front = original.time(0);
  const util::Timestamp original_back = original.time(original.size() - 1);
  for (std::size_t c = 0; c < published.TraceCount(); ++c) {
    const model::TraceView& candidate = published.trace(c);
    if (candidate.user() != original.user() || candidate.empty()) continue;
    const util::Timestamp overlap =
        std::min(candidate.time(candidate.size() - 1), original_back) -
        std::max(candidate.time(0), original_front);
    if (overlap >= 0 && overlap > best_overlap) {
      best_overlap = overlap;
      best = static_cast<std::ptrdiff_t>(c);
    }
  }
  return best;
}

std::vector<double> OracleSync(const model::TraceView& original,
                               const model::TraceView& published) {
  std::vector<double> out;
  if (original.empty() || published.empty()) return out;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const geo::LatLng at = model::InterpolateAt(published, original.time(i));
    out.push_back(geo::HaversineDistance(original.position(i), at));
  }
  return out;
}

std::vector<double> OraclePath(const model::TraceView& original,
                               const model::TraceView& published) {
  std::vector<double> out;
  if (original.empty() || published.empty()) return out;
  const geo::LocalProjection projection(original.BoundingBox().Center());
  std::vector<geo::Point2> path;
  for (std::size_t i = 0; i < published.size(); ++i) {
    path.push_back(projection.Project(published.position(i)));
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    out.push_back(geo::DistanceToPolyline(
        path, projection.Project(original.position(i))));
  }
  return out;
}

util::Summary OracleSummary(std::vector<double> values) {
  util::Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  util::RunningStat rs;
  for (const double v : values) rs.Add(v);
  s.count = rs.Count();
  s.mean = rs.Mean();
  s.stddev = rs.Stddev();
  s.min = values.front();
  s.p25 = util::PercentileSorted(values, 0.25);
  s.median = util::PercentileSorted(values, 0.50);
  s.p75 = util::PercentileSorted(values, 0.75);
  s.p95 = util::PercentileSorted(values, 0.95);
  s.p99 = util::PercentileSorted(values, 0.99);
  s.max = values.back();
  return s;
}

DistortionSummary OracleMeasure(const model::DatasetView& original,
                                const model::DatasetView& published) {
  DistortionSummary summary;
  std::vector<double> sync_all;
  std::vector<double> path_all;
  for (const model::TraceView& trace : original.traces()) {
    const std::ptrdiff_t match = OracleMatch(trace, published);
    if (match < 0) {
      ++summary.skipped_traces;
      continue;
    }
    ++summary.compared_traces;
    const model::TraceView& matched =
        published.trace(static_cast<std::size_t>(match));
    const auto sync = OracleSync(trace, matched);
    const auto path = OraclePath(trace, matched);
    sync_all.insert(sync_all.end(), sync.begin(), sync.end());
    path_all.insert(path_all.end(), path.begin(), path.end());
  }
  summary.synchronized_m = OracleSummary(std::move(sync_all));
  summary.path_m = OracleSummary(std::move(path_all));
  return summary;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const util::Summary& a, const util::Summary& b) {
  const double fa[] = {a.mean, a.stddev, a.min,  a.p25, a.median,
                       a.p75,  a.p95,    a.p99, a.max};
  const double fb[] = {b.mean, b.stddev, b.min,  b.p25, b.median,
                       b.p75,  b.p95,    b.p99, b.max};
  return a.count == b.count && std::memcmp(fa, fb, sizeof fa) == 0;
}

// A random polyline near `anchor`: a walk with repeated points (zero-length
// segments), and now and then NaN, +-inf or huge coordinates.
std::vector<model::Event> RandomWalk(util::Rng& rng, geo::LatLng anchor,
                                     std::size_t n, util::Timestamp t0,
                                     bool exotic) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<model::Event> events;
  geo::LatLng at = anchor;
  util::Timestamp t = t0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.8) {
      at.lat += rng.Uniform(-0.002, 0.002);
      at.lng += rng.Uniform(-0.002, 0.002);
    }
    geo::LatLng fix = at;
    if (exotic && rng.NextDouble() < 0.05) {
      const double odd[] = {kNan, kInf, -kInf, 1e300, -1e300, 1e154};
      (rng.NextDouble() < 0.5 ? fix.lat : fix.lng) =
          odd[rng.NextBounded(std::size(odd))];
    }
    // Mostly ascending; duplicate and backwards steps included.
    const double step = rng.NextDouble();
    t += step < 0.1 ? 0 : (step < 0.15 ? -rng.UniformInt(1, 120)
                                        : rng.UniformInt(1, 90));
    events.push_back({fix, t});
  }
  return events;
}

struct World {
  model::Dataset original;
  model::Dataset published;
};

// Users with 0-3 original sessions each; the published side drops some
// users, splits or duplicates sessions (tied overlaps), perturbs the
// geometry and shifts the times.
World RandomWorld(std::uint64_t seed) {
  util::Rng rng(seed);
  World w;
  const std::size_t users = 1 + rng.NextBounded(8);
  for (std::size_t u = 0; u < users; ++u) {
    const std::string name = "u" + std::to_string(u);
    const model::UserId id = w.original.InternUser(name);
    w.published.InternUser(name);
    const bool exotic = rng.NextDouble() < 0.3;
    const bool published_user = rng.NextDouble() < 0.85;
    const std::size_t sessions = rng.NextBounded(4);
    for (std::size_t s = 0; s < sessions; ++s) {
      const geo::LatLng anchor{45.7 + rng.Uniform(0, 0.1),
                               4.8 + rng.Uniform(0, 0.1)};
      const util::Timestamp t0 = rng.UniformInt(0, 20000);
      const std::size_t sizes[] = {0, 1, 2, 3, 17, 120, 400};
      const std::size_t n = sizes[rng.NextBounded(std::size(sizes))];
      model::Trace original;
      original.set_user(id);
      for (const auto& e : RandomWalk(rng, anchor, n, t0, exotic)) {
        original.Append(e);
      }
      w.original.AddTrace(original);
      if (!published_user) continue;
      const std::size_t copies = 1 + rng.NextBounded(3);
      for (std::size_t c = 0; c < copies; ++c) {
        model::Trace published;
        published.set_user(id);
        const util::Timestamp shift = rng.UniformInt(-300, 300);
        const double noise = rng.NextDouble() < 0.5 ? 0.0 : 0.001;
        std::size_t keep_from = 0;
        std::size_t keep_to = original.size();
        if (rng.NextDouble() < 0.3 && original.size() > 2) {
          keep_from = rng.NextBounded(original.size() / 2);
          keep_to = keep_from + 1 +
                    rng.NextBounded(original.size() - keep_from);
        }
        for (std::size_t i = keep_from; i < keep_to; ++i) {
          model::Event e = original.events()[i];
          e.position.lat += rng.Uniform(-noise, noise);
          e.position.lng += rng.Uniform(-noise, noise);
          e.time += c == 0 ? shift : 0;  // later copies tie with each other
          published.Append(e);
        }
        if (rng.NextDouble() < 0.1) {
          published = model::Trace{};  // an empty published session
          published.set_user(id);
        }
        w.published.AddTrace(published);
      }
    }
  }
  return w;
}

TEST(MeasureDistortion, MatchesBruteForceOracleBitForBit) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    const World w = RandomWorld(seed);
    const model::DatasetView original(w.original);
    const model::DatasetView published(w.published);
    for (const model::TraceView& trace : original.traces()) {
      for (const model::TraceView& candidate : published.traces()) {
        if (candidate.user() != trace.user()) continue;
        EXPECT_TRUE(SameBits(SynchronizedDeviation(trace, candidate),
                             OracleSync(trace, candidate)));
        EXPECT_TRUE(SameBits(PathDeviation(trace, candidate),
                             OraclePath(trace, candidate)));
      }
    }
    const DistortionSummary want = OracleMeasure(original, published);
    for (const std::size_t threads : {1, 4}) {
      const util::ScopedParallelism parallelism(threads);
      const DistortionSummary got = MeasureDistortion(original, published);
      EXPECT_EQ(got.compared_traces, want.compared_traces);
      EXPECT_EQ(got.skipped_traces, want.skipped_traces);
      EXPECT_TRUE(SameBits(got.synchronized_m, want.synchronized_m));
      EXPECT_TRUE(SameBits(got.path_m, want.path_m));
    }
  }
}

TEST(MeasureDistortion, TiedOverlapsPickTheLowestIndex) {
  // Two published sessions of one user with the same overlap: the first
  // one is measured (it is 100 m off, the second 300 m).
  model::Dataset original;
  original.InternUser("a");
  original.AddTrace(EastboundTrace(0, 0.0));
  model::Dataset published;
  published.InternUser("a");
  published.AddTrace(EastboundTrace(0, 100.0));
  published.AddTrace(EastboundTrace(0, 300.0));
  const auto summary = MeasureDistortion(original, published);
  EXPECT_EQ(summary.compared_traces, 1u);
  EXPECT_NEAR(summary.path_m.mean, 100.0, 0.5);
}

TEST(PathDeviation, PrunedScanKeepsTheExactMinimumOnLongPaths) {
  // A long zig-zag published path against fixes scattered around it, some
  // exactly on a vertex: the pruned scan must return DistanceToPolyline's
  // bits for every fix.
  util::Rng rng(7);
  const geo::LocalProjection projection(kOrigin);
  model::Trace published;
  published.set_user(0);
  for (int i = 0; i < 2000; ++i) {
    const double y = (i % 2 == 0 ? 0.0 : 40.0) + rng.Uniform(-5.0, 5.0);
    published.Append({projection.Unproject({i * 7.0, y}),
                      static_cast<util::Timestamp>(i)});
  }
  model::Trace original;
  original.set_user(0);
  for (int i = 0; i < 3000; ++i) {
    const geo::Point2 p =
        i % 10 == 0
            ? projection.Project(published.events()[(i * 7) % 2000].position)
            : geo::Point2{rng.Uniform(-500.0, 14500.0),
                          rng.Uniform(-300.0, 300.0)};
    original.Append({projection.Unproject(p), static_cast<util::Timestamp>(i)});
  }
  EXPECT_TRUE(SameBits(PathDeviation(original, published),
                       OraclePath(original, published)));
  EXPECT_TRUE(SameBits(SynchronizedDeviation(original, published),
                       OracleSync(original, published)));
}

TEST(SynchronizedDeviation, BackwardsQueryTimesMatchTheBinarySearch) {
  // Original fix times that go backwards (the cursor falls back to the
  // binary search) and a published trace with unordered times.
  const auto published = EastboundTrace(0, 50.0);
  model::Trace original;
  original.set_user(0);
  for (const util::Timestamp t : {30, 650, 90, 90, 1190, 5, -40, 1300, 610}) {
    original.Append({kOrigin, t});
  }
  EXPECT_TRUE(SameBits(SynchronizedDeviation(original, published),
                       OracleSync(original, published)));
  model::Trace unordered = published;
  std::swap(unordered.mutable_events()[3].time,
            unordered.mutable_events()[9].time);
  EXPECT_TRUE(SameBits(SynchronizedDeviation(original, unordered),
                       OracleSync(original, unordered)));
}

}  // namespace
}  // namespace mobipriv::metrics
