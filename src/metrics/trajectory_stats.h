// Aggregate trajectory statistics and their preservation under publication:
// the utility battery mobility analysts actually consume (trip-length
// distribution, radius of gyration, daily travel distance). Preservation is
// measured distributionally (earth mover's distance between histograms and
// per-user relative error), so it is meaningful even for mechanisms that
// swap identities or resample points.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geo/projection.h"
#include "model/dataset.h"
#include "model/views.h"
#include "util/statistics.h"

namespace mobipriv::metrics {

/// Per-trace trip lengths in metres (one value per trace, >= min_length_m).
/// Lengths compute per trace on the pool and filter in trace order.
[[nodiscard]] std::vector<double> TripLengths(
    const model::DatasetView& dataset, double min_length_m = 0.0);

/// Radius of gyration of one user (root mean square distance of all the
/// user's fixes from their centroid, metres) — the classic human-mobility
/// scale statistic.
[[nodiscard]] double RadiusOfGyration(const model::DatasetView& dataset,
                                      model::UserId user);

/// Radius of gyration of every user id in [0, UserCount()); users fan out
/// on the pool (each user's fix scan is independent). The one-argument
/// form projects in the dataset's own frame (centred on its bounding box);
/// the `projection` form takes a caller-built frame.
[[nodiscard]] std::vector<double> AllRadiiOfGyration(
    const model::DatasetView& dataset);
[[nodiscard]] std::vector<double> AllRadiiOfGyration(
    const model::DatasetView& dataset, const geo::LocalProjection& projection);

/// Gyration radius over an explicit trace sequence in a caller-built frame
/// — the one kernel RadiusOfGyration, AllRadiiOfGyration and the
/// shard-streamed trajectory-stats fold share. Handing in one user's
/// traces in dataset order reproduces RadiusOfGyration for that user bit
/// for bit.
[[nodiscard]] double RadiusOfGyrationOfTraces(
    std::span<const model::TraceView> traces,
    const geo::LocalProjection& projection);

/// First Wasserstein (earth mover's) distance between two empirical
/// 1-D distributions. 0 when identical; units are those of the samples.
/// Empty inputs: 0 if both empty, infinity otherwise.
[[nodiscard]] double EarthMoversDistance(std::vector<double> a,
                                         std::vector<double> b);

struct TrajectoryStatsReport {
  util::Summary trip_length_original;
  util::Summary trip_length_published;
  double trip_length_emd = 0.0;  ///< metres
  util::Summary gyration_original;
  util::Summary gyration_published;
  /// Mean relative error of per-user radius of gyration (matched by id).
  double gyration_relative_error = 0.0;

  [[nodiscard]] std::string ToString() const;
};

/// Everything the preservation report reads from the original alone.
struct TrajectoryStatsOriginal {
  std::vector<double> trip_lengths;  ///< TripLengths(original)
  /// Centred on original.BoundingBox(): both sides' radii use it.
  geo::LocalProjection frame;
  std::vector<double> gyration;  ///< AllRadiiOfGyration(original, frame)
};

[[nodiscard]] TrajectoryStatsOriginal PrepareTrajectoryStats(
    const model::DatasetView& original);

/// The report from the published side's trip lengths (TripLengths order)
/// and per-user radii measured in `original.frame`.
[[nodiscard]] TrajectoryStatsReport SummarizeTrajectoryStats(
    const TrajectoryStatsOriginal& original,
    const std::vector<double>& trips_published,
    const std::vector<double>& gyration_published);

/// Full preservation report between an original and a published dataset.
/// Both radii of gyration are measured in the ORIGINAL's frame (centred on
/// original.BoundingBox()), so published points far from the original
/// extent change only their own user's radius. The first form takes the
/// original side prepared once for many published datasets.
[[nodiscard]] TrajectoryStatsReport CompareTrajectoryStats(
    const TrajectoryStatsOriginal& original,
    const model::DatasetView& published);
[[nodiscard]] TrajectoryStatsReport CompareTrajectoryStats(
    const model::DatasetView& original, const model::DatasetView& published);

}  // namespace mobipriv::metrics
