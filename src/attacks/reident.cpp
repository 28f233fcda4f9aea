#include "attacks/reident.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "geo/grid_index.h"
#include "util/thread_pool.h"

namespace mobipriv::attacks {
namespace {

/// Below this POI count a linear scan beats building/probing a grid.
constexpr std::size_t kIndexThreshold = 16;

/// Spatial index over one profile's POIs, sized so occupied cells hold a
/// handful of points each (cell = extent / sqrt(n), floored at 1 m).
geo::GridIndex BuildPoiIndex(const std::vector<geo::Point2>& points) {
  double min_x = points[0].x, max_x = points[0].x;
  double min_y = points[0].y, max_y = points[0].y;
  for (const auto& p : points) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double extent = std::max(max_x - min_x, max_y - min_y);
  const double cell = std::max(
      1.0, extent / std::max(1.0, std::sqrt(static_cast<double>(points.size()))));
  geo::GridIndex index(cell);
  index.Reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    index.Insert(points[i], static_cast<std::uint64_t>(i));
  }
  return index;
}

double NearestDistance(geo::Point2 from, const std::vector<geo::Point2>& to,
                       const geo::GridIndex* to_index) {
  if (to_index != nullptr) {
    const auto nearest = to_index->QueryNearest(from);
    assert(nearest.has_value());
    return geo::Distance(from, nearest->point);
  }
  // Select the argmin by squared distance with first-wins ties — the exact
  // ordering QueryNearest uses (smaller id on equal distance) — then
  // measure it with the library-wide Distance. Indexed and linear paths
  // therefore pick the same point and return the same value bit-for-bit.
  double best_sq = std::numeric_limits<double>::infinity();
  geo::Point2 best = to.front();
  for (const auto& q : to) {
    const double d_sq = geo::DistanceSquared(from, q);
    if (d_sq < best_sq) {
      best_sq = d_sq;
      best = q;
    }
  }
  return geo::Distance(from, best);
}

/// Mean distance from each point of `from` to its nearest point of `to`,
/// weighted by `from_weights`. Infinity when either side is empty.
/// `to_index`, when non-null, must index exactly `to`.
double DirectedMeanNearest(const std::vector<geo::Point2>& from,
                           const std::vector<double>& from_weights,
                           const std::vector<geo::Point2>& to,
                           const geo::GridIndex* to_index = nullptr) {
  if (from.empty() || to.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  double weighted_sum = 0.0;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < from.size(); ++i) {
    const double best = NearestDistance(from[i], to, to_index);
    const double w = from_weights.empty() ? 1.0 : from_weights[i];
    weighted_sum += best * w;
    total_weight += w;
  }
  return total_weight > 0.0 ? weighted_sum / total_weight
                            : std::numeric_limits<double>::infinity();
}

double ProfileDistanceIndexed(const MobilityProfile& a,
                              const geo::GridIndex* a_index,
                              const MobilityProfile& b,
                              const geo::GridIndex* b_index) {
  const double ab = DirectedMeanNearest(a.pois, a.weights, b.pois, b_index);
  const double ba = DirectedMeanNearest(b.pois, b.weights, a.pois, a_index);
  return 0.5 * (ab + ba);
}

/// Lazily built optional index: only profiles big enough to pay for one.
std::optional<geo::GridIndex> MaybeIndex(const std::vector<geo::Point2>& pois) {
  if (pois.size() < kIndexThreshold) return std::nullopt;
  return BuildPoiIndex(pois);
}

}  // namespace

ReidentificationAttack::ReidentificationAttack(ReidentConfig config)
    : config_(config) {}

std::vector<MobilityProfile> ReidentificationAttack::BuildProfiles(
    const model::DatasetView& training,
    const geo::LocalProjection& projection) const {
  const PoiExtractor extractor(config_.poi);
  const auto pois = extractor.Extract(training, projection);
  std::map<model::UserId, MobilityProfile> by_user;
  for (const auto& poi : pois) {
    auto& profile = by_user[poi.user];
    profile.user = poi.user;
    profile.pois.push_back(poi.centroid);
    profile.weights.push_back(static_cast<double>(poi.total_dwell_s));
  }
  std::vector<MobilityProfile> out;
  out.reserve(by_user.size());
  for (auto& [user, profile] : by_user) out.push_back(std::move(profile));
  return out;
}

double ReidentificationAttack::ProfileDistance(const MobilityProfile& a,
                                               const MobilityProfile& b) {
  const auto a_index = MaybeIndex(a.pois);
  const auto b_index = MaybeIndex(b.pois);
  return ProfileDistanceIndexed(a, a_index ? &*a_index : nullptr, b,
                                b_index ? &*b_index : nullptr);
}

std::vector<LinkResult> ReidentificationAttack::Attack(
    const std::vector<MobilityProfile>& profiles,
    const model::DatasetView& anonymized,
    const geo::LocalProjection& projection) const {
  const PoiExtractor extractor(config_.poi);

  // The training profiles are probed once per anonymized trace: index them
  // up front so every probe is a ring query instead of a linear scan.
  std::vector<std::optional<geo::GridIndex>> profile_indices(profiles.size());
  util::ParallelForEach(profiles.size(), [&](std::size_t p) {
    profile_indices[p] = MaybeIndex(profiles[p].pois);
  });

  const auto& traces = anonymized.traces();
  std::vector<LinkResult> results(traces.size());
  util::ParallelForEach(traces.size(), [&](std::size_t t) {
    const auto& trace = traces[t];
    LinkResult& result = results[t];
    result.true_user = trace.user();
    // Build the pseudonymous trace's own profile.
    MobilityProfile target;
    for (const auto& stay : extractor.ExtractStays(trace, projection)) {
      target.pois.push_back(stay.centroid);
      target.weights.push_back(
          static_cast<double>(stay.departure - stay.arrival));
    }
    if (target.pois.empty()) {
      result.linkable = false;
      return;
    }
    result.linkable = true;
    const auto target_index = MaybeIndex(target.pois);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const double d = ProfileDistanceIndexed(
          target, target_index ? &*target_index : nullptr, profiles[p],
          profile_indices[p] ? &*profile_indices[p] : nullptr);
      if (d < best) {
        best = d;
        result.predicted_user = profiles[p].user;
      }
    }
    result.distance = best;
  });
  return results;
}

double ReidentificationAttack::Accuracy(const std::vector<LinkResult>& results,
                                        bool count_unlinkable_as_failure) {
  if (results.empty()) return 0.0;
  std::size_t correct = 0;
  std::size_t considered = 0;
  for (const auto& r : results) {
    if (!r.linkable) {
      if (count_unlinkable_as_failure) ++considered;
      continue;
    }
    ++considered;
    if (r.predicted_user == r.true_user) ++correct;
  }
  return considered == 0 ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(considered);
}

}  // namespace mobipriv::attacks
