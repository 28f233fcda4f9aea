#include "metrics/heatmap.h"

#include <cmath>

namespace mobipriv::metrics {
namespace {

std::uint64_t CellKey(geo::Point2 p, double cell) {
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / cell));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / cell));
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

}  // namespace

Heatmap::Heatmap(const model::DatasetView& dataset,
                 const geo::LocalProjection& projection,
                 const HeatmapConfig& config) {
  for (const auto& trace : dataset.traces()) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      counts_[CellKey(projection.Project(trace.position(i)),
                      config.cell_size_m)] += 1.0;
      ++total_;
    }
  }
}

double Heatmap::Cosine(const Heatmap& a, const Heatmap& b) {
  if (a.counts_.empty() && b.counts_.empty()) return 1.0;
  if (a.counts_.empty() || b.counts_.empty()) return 0.0;
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (const auto& [key, value] : a.counts_) {
    norm_a += value * value;
    const auto it = b.counts_.find(key);
    if (it != b.counts_.end()) dot += value * it->second;
  }
  for (const auto& [key, value] : b.counts_) norm_b += value * value;
  const double denom = std::sqrt(norm_a) * std::sqrt(norm_b);
  return denom > 0.0 ? dot / denom : 0.0;
}

double Heatmap::NormalizedL1(const Heatmap& a, const Heatmap& b) {
  if (a.total_ == 0 && b.total_ == 0) return 0.0;
  if (a.total_ == 0 || b.total_ == 0) return 2.0;
  const double na = static_cast<double>(a.total_);
  const double nb = static_cast<double>(b.total_);
  double l1 = 0.0;
  for (const auto& [key, value] : a.counts_) {
    const auto it = b.counts_.find(key);
    const double pb = it == b.counts_.end() ? 0.0 : it->second / nb;
    l1 += std::abs(value / na - pb);
  }
  for (const auto& [key, value] : b.counts_) {
    if (!a.counts_.contains(key)) l1 += value / nb;
  }
  return l1;
}

double HeatmapSimilarity(const model::DatasetView& original,
                         const model::DatasetView& published,
                         const HeatmapConfig& config) {
  geo::GeoBoundingBox bbox = original.BoundingBox();
  bbox.Extend(published.BoundingBox());
  if (bbox.IsEmpty()) return 1.0;
  const geo::LocalProjection projection(bbox.Center());
  const Heatmap a(original, projection, config);
  const Heatmap b(published, projection, config);
  return Heatmap::Cosine(a, b);
}

}  // namespace mobipriv::metrics
