#include "metrics/trajectory_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "geo/projection.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv::metrics {

std::vector<double> TripLengths(const model::DatasetView& dataset,
                                double min_length_m) {
  // Per-trace lengths compute independently on the pool; the min-length
  // filter then runs in trace order, so the output matches a serial scan.
  const std::size_t n = dataset.TraceCount();
  std::vector<double> raw(n);
  util::ParallelForEach(
      n, [&](std::size_t t) { raw[t] = dataset.trace(t).LengthMeters(); });
  std::vector<double> lengths;
  lengths.reserve(n);
  for (const double length : raw) {
    if (length >= min_length_m) lengths.push_back(length);
  }
  return lengths;
}

double RadiusOfGyrationOfTraces(std::span<const model::TraceView> traces,
                                const geo::LocalProjection& projection) {
  // Two passes over the sequence: centroid first, then RMS distance.
  geo::Point2 centroid{};
  std::size_t n = 0;
  for (const model::TraceView& trace : traces) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      centroid = centroid + projection.Project(trace.position(i));
      ++n;
    }
  }
  if (n == 0) return 0.0;
  centroid = centroid / static_cast<double>(n);
  double sum_sq = 0.0;
  for (const model::TraceView& trace : traces) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      sum_sq += geo::DistanceSquared(projection.Project(trace.position(i)),
                                     centroid);
    }
  }
  return std::sqrt(sum_sq / static_cast<double>(n));
}

double RadiusOfGyration(const model::DatasetView& dataset,
                        model::UserId user) {
  // The user's traces in dataset order: the sequence AllRadiiOfGyration's
  // per-user bucket holds, so both give the bit-identical radius.
  std::vector<model::TraceView> own;
  for (const model::TraceView& trace : dataset.traces()) {
    if (trace.user() == user) own.push_back(trace);
  }
  return RadiusOfGyrationOfTraces(
      own, geo::LocalProjection(dataset.BoundingBox().Center()));
}

std::vector<double> AllRadiiOfGyration(const model::DatasetView& dataset) {
  return AllRadiiOfGyration(
      dataset, geo::LocalProjection(dataset.BoundingBox().Center()));
}

std::vector<double> AllRadiiOfGyration(const model::DatasetView& dataset,
                                       const geo::LocalProjection& projection) {
  // Bucket trace indices by user first, so each user's scan walks only its
  // own traces — O(traces + events) overall instead of the quadratic
  // users x traces of a per-user full scan (which is what caps dataset
  // size). The buckets keep dataset trace order, so every user sees the
  // exact fix sequence the full scan visited: results are bit-identical.
  std::vector<std::vector<std::uint32_t>> by_user(dataset.UserCount());
  const std::span<const model::TraceView> traces = dataset.traces();
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const model::UserId user = traces[t].user();
    if (user < by_user.size()) {
      by_user[user].push_back(static_cast<std::uint32_t>(t));
    }
  }
  std::vector<double> radii(dataset.UserCount());
  util::ParallelForEach(dataset.UserCount(), [&](std::size_t user) {
    std::vector<model::TraceView> own;
    own.reserve(by_user[user].size());
    for (const std::uint32_t t : by_user[user]) own.push_back(traces[t]);
    radii[user] = RadiusOfGyrationOfTraces(own, projection);
  });
  return radii;
}

double EarthMoversDistance(std::vector<double> a, std::vector<double> b) {
  if (a.empty() && b.empty()) return 0.0;
  if (a.empty() || b.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  // W1 between empirical CDFs: integrate |F_a^{-1}(q) - F_b^{-1}(q)| dq on
  // a common quantile grid fine enough for both sample sizes.
  const std::size_t grid = std::max(a.size(), b.size()) * 2;
  double total = 0.0;
  for (std::size_t i = 0; i < grid; ++i) {
    const double q = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(grid);
    total += std::abs(util::PercentileSorted(a, q) -
                      util::PercentileSorted(b, q));
  }
  return total / static_cast<double>(grid);
}

std::string TrajectoryStatsReport::ToString() const {
  std::ostringstream os;
  os << "trip_len orig: " << trip_length_original.ToString()
     << "\ntrip_len pub:  " << trip_length_published.ToString()
     << "\ntrip_len EMD:  " << util::FormatDouble(trip_length_emd, 1)
     << " m\ngyration orig: " << gyration_original.ToString()
     << "\ngyration pub:  " << gyration_published.ToString()
     << "\ngyration mean rel err: "
     << util::FormatDouble(gyration_relative_error, 4);
  return os.str();
}

TrajectoryStatsOriginal PrepareTrajectoryStats(
    const model::DatasetView& original) {
  // Both radii in the original's frame, so a published outlier cannot
  // rescale every user's axes (the streamed fold builds the same frame
  // from the folded original extent).
  TrajectoryStatsOriginal prepared{
      TripLengths(original),
      geo::LocalProjection(original.BoundingBox().Center()),
      {}};
  prepared.gyration = AllRadiiOfGyration(original, prepared.frame);
  return prepared;
}

TrajectoryStatsReport SummarizeTrajectoryStats(
    const TrajectoryStatsOriginal& original,
    const std::vector<double>& trips_published,
    const std::vector<double>& gyration_published) {
  TrajectoryStatsReport report;
  const std::vector<double>& trips_orig = original.trip_lengths;
  report.trip_length_original = util::Summary::Of(trips_orig);
  report.trip_length_published = util::Summary::Of(trips_published);
  report.trip_length_emd = EarthMoversDistance(trips_orig, trips_published);

  const std::vector<double>& gyr_orig = original.gyration;
  const std::vector<double>& gyr_pub = gyration_published;
  report.gyration_original = util::Summary::Of(gyr_orig);
  report.gyration_published = util::Summary::Of(gyr_pub);
  double rel_sum = 0.0;
  std::size_t rel_n = 0;
  for (std::size_t u = 0; u < std::min(gyr_orig.size(), gyr_pub.size());
       ++u) {
    if (gyr_orig[u] <= 0.0) continue;
    rel_sum += std::abs(gyr_orig[u] - gyr_pub[u]) / gyr_orig[u];
    ++rel_n;
  }
  report.gyration_relative_error =
      rel_n == 0 ? 0.0 : rel_sum / static_cast<double>(rel_n);
  return report;
}

TrajectoryStatsReport CompareTrajectoryStats(
    const TrajectoryStatsOriginal& original,
    const model::DatasetView& published) {
  return SummarizeTrajectoryStats(
      original, TripLengths(published),
      AllRadiiOfGyration(published, original.frame));
}

TrajectoryStatsReport CompareTrajectoryStats(
    const model::DatasetView& original, const model::DatasetView& published) {
  return CompareTrajectoryStats(PrepareTrajectoryStats(original), published);
}

}  // namespace mobipriv::metrics
