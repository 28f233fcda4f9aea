#include "attacks/poi_extraction.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "geo/grid_index.h"
#include "util/thread_pool.h"

namespace mobipriv::attacks {

geo::LocalProjection DatasetProjection(const model::DatasetView& dataset) {
  const geo::GeoBoundingBox bbox = dataset.BoundingBox();
  return geo::LocalProjection(bbox.IsEmpty() ? geo::LatLng{0.0, 0.0}
                                             : bbox.Center());
}

PoiExtractor::PoiExtractor(PoiExtractionConfig config) : config_(config) {
  assert(config_.max_diameter_m > 0.0);
  assert(config_.min_duration_s > 0);
  assert(config_.merge_radius_m >= 0.0);
}

std::vector<StayPoint> PoiExtractor::ExtractStays(
    const model::TraceView& trace,
    const geo::LocalProjection& projection) const {
  std::vector<StayPoint> stays;
  const std::size_t n = trace.size();
  if (n == 0) return stays;
  std::vector<geo::Point2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(projection.Project(trace.position(i)));
  }

  // Incremental sliding window over anchor candidates. For anchor i the run
  // extends while fixes stay within `max_diameter_m` of fix i; a run that
  // dwells long enough becomes a stay and the anchor jumps past it. The key
  // step is the *failure* case: when the run [i, j) is too short in time,
  // every anchor i' in (i, j) whose run cannot reach the break fix j is
  // provably too short as well (its run is confined to [i', j), and
  // timestamps are non-decreasing), so the anchor slides forward testing a
  // single anchor-to-break distance per fix instead of rescanning the whole
  // run per anchor. Output is identical to the naive per-anchor rescan; on
  // densely sampled sub-threshold dwells the cost drops from O(run^2) to
  // O(run).
  std::size_t i = 0;
  while (i < n) {
    // Extend j while every fix stays within `max_diameter_m` of fix i.
    std::size_t j = i + 1;
    while (j < n &&
           geo::Distance(points[i], points[j]) <= config_.max_diameter_m) {
      ++j;
    }
    // Fixes [i, j) form a spatially bounded run; is it long enough in time?
    const util::Timestamp dwell = trace.time(j - 1) - trace.time(i);
    if (dwell >= config_.min_duration_s) {
      geo::Point2 centroid{};
      for (std::size_t k = i; k < j; ++k) centroid = centroid + points[k];
      centroid = centroid / static_cast<double>(j - i);
      stays.push_back(StayPoint{trace.user(), centroid, trace.time(i),
                                trace.time(j - 1), j - i});
      i = j;
      continue;
    }
    if (j >= n) break;  // every later anchor's run is shorter still
    // Slide to the first anchor whose run could include the break fix j.
    std::size_t next = i + 1;
    while (next < j &&
           geo::Distance(points[next], points[j]) > config_.max_diameter_m) {
      ++next;
    }
    i = next;
  }
  return stays;
}

std::vector<ExtractedPoi> PoiExtractor::Extract(
    const model::DatasetView& dataset,
    const geo::LocalProjection& projection) const {
  // 1. Stays per trace, in parallel; then pooled per user in trace order
  //    (the exact order the serial scan produced).
  const auto& traces = dataset.traces();
  std::vector<std::vector<StayPoint>> per_trace(traces.size());
  util::ParallelForEach(traces.size(), [&](std::size_t t) {
    per_trace[t] = ExtractStays(traces[t], projection);
  });
  std::map<model::UserId, std::vector<StayPoint>> stays_by_user;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    if (per_trace[t].empty()) continue;
    auto& pooled = stays_by_user[traces[t].user()];
    pooled.insert(pooled.end(), per_trace[t].begin(), per_trace[t].end());
  }

  // 2. Greedy agglomeration of each user's stays into POIs, one user per
  //    task. Users are merged back in ascending-id order, matching the
  //    serial map iteration.
  std::vector<std::pair<model::UserId, std::vector<StayPoint>*>> users;
  users.reserve(stays_by_user.size());
  for (auto& [user, stays] : stays_by_user) users.emplace_back(user, &stays);

  std::vector<std::vector<ExtractedPoi>> per_user(users.size());
  util::ParallelForEach(users.size(), [&](std::size_t u) {
    const model::UserId user = users[u].first;
    std::vector<StayPoint>& stays = *users[u].second;
    // Longest-dwell stays become cluster seeds first (stable anchors).
    std::sort(stays.begin(), stays.end(),
              [](const StayPoint& a, const StayPoint& b) {
                return (a.departure - a.arrival) > (b.departure - b.arrival);
              });
    struct Cluster {
      geo::Point2 weighted_sum{};
      double weight = 0.0;
      std::size_t visits = 0;
      util::Timestamp dwell = 0;
      geo::Point2 Centroid() const { return weighted_sum / weight; }
    };
    std::vector<Cluster> clusters;
    // Once a user accumulates enough clusters, their centroids move into a
    // grid sized to the merge radius: each stay then probes a 3x3
    // neighbourhood instead of scanning every cluster. Below the threshold
    // a linear first-fit scan is cheaper than grid bookkeeping. Either way
    // the chosen cluster is the lowest-id one within the merge radius of
    // the stay, i.e. first-fit in creation order — identical output.
    constexpr std::size_t kIndexAfterClusters = 32;
    std::optional<geo::GridIndex> centroid_index;
    std::vector<std::pair<std::uint64_t, geo::Point2>> candidates;
    for (const StayPoint& stay : stays) {
      if (!centroid_index && clusters.size() >= kIndexAfterClusters) {
        centroid_index.emplace(std::max(config_.merge_radius_m, 1.0));
        centroid_index->Reserve(stays.size());
        for (std::size_t c = 0; c < clusters.size(); ++c) {
          centroid_index->Insert(clusters[c].Centroid(),
                                 static_cast<std::uint64_t>(c));
        }
      }
      const double w = static_cast<double>(stay.support);
      std::ptrdiff_t target = -1;
      if (centroid_index) {
        centroid_index->QueryBoxCandidates(stay.centroid,
                                           config_.merge_radius_m, candidates);
        for (const auto& [id, centroid] : candidates) {
          if (geo::Distance(centroid, stay.centroid) >
              config_.merge_radius_m) {
            continue;
          }
          if (target < 0 || static_cast<std::ptrdiff_t>(id) < target) {
            target = static_cast<std::ptrdiff_t>(id);
          }
        }
      } else {
        for (std::size_t c = 0; c < clusters.size(); ++c) {
          if (geo::Distance(clusters[c].Centroid(), stay.centroid) <=
              config_.merge_radius_m) {
            target = static_cast<std::ptrdiff_t>(c);
            break;
          }
        }
      }
      if (target < 0) {
        clusters.emplace_back();
        target = static_cast<std::ptrdiff_t>(clusters.size()) - 1;
        Cluster& cluster = clusters.back();
        cluster.weighted_sum = stay.centroid * w;
        cluster.weight = w;
        cluster.visits = 1;
        cluster.dwell = stay.departure - stay.arrival;
        if (centroid_index) {
          centroid_index->Insert(cluster.Centroid(),
                                 static_cast<std::uint64_t>(target));
        }
        continue;
      }
      Cluster& cluster = clusters[static_cast<std::size_t>(target)];
      const geo::Point2 old_centroid = cluster.Centroid();
      cluster.weighted_sum = cluster.weighted_sum + stay.centroid * w;
      cluster.weight += w;
      cluster.visits += 1;
      cluster.dwell += stay.departure - stay.arrival;
      if (centroid_index) {
        centroid_index->Move(old_centroid, cluster.Centroid(),
                             static_cast<std::uint64_t>(target));
      }
    }
    per_user[u].reserve(clusters.size());
    for (const auto& cluster : clusters) {
      per_user[u].push_back(ExtractedPoi{user, cluster.Centroid(),
                                         cluster.visits, cluster.dwell});
    }
  });

  std::vector<ExtractedPoi> pois;
  for (const auto& user_pois : per_user) {
    pois.insert(pois.end(), user_pois.begin(), user_pois.end());
  }
  return pois;
}

std::vector<ExtractedPoi> PoiExtractor::Extract(
    const model::DatasetView& dataset) const {
  return Extract(dataset, DatasetProjection(dataset));
}

}  // namespace mobipriv::attacks
