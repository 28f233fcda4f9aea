#include "metrics/kdelta.h"

#include <algorithm>
#include <sstream>

#include "geo/projection.h"
#include "model/filters.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv::metrics {

double KDeltaReport::FractionWithK(std::size_t k_floor) const {
  if (per_trace.empty()) return 0.0;
  std::size_t count = 0;
  for (const auto& t : per_trace) {
    if (t.k >= k_floor) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(per_trace.size());
}

std::string KDeltaReport::ToString() const {
  std::ostringstream os;
  os << "traces=" << per_trace.size()
     << " k: " << k_distribution.ToString()
     << " frac(k>=2)=" << util::FormatDouble(FractionWithK(2), 3)
     << " frac(k>=4)=" << util::FormatDouble(FractionWithK(4), 3);
  return os.str();
}

KDeltaReport MeasureKDeltaAnonymity(const model::DatasetView& dataset,
                                    const KDeltaConfig& config) {
  KDeltaReport report;
  const auto& traces = dataset.traces();
  if (traces.empty()) return report;
  const geo::LocalProjection projection(dataset.BoundingBox().Center());

  // Pre-align every trace onto its own step grid (planar); each trace
  // aligns independently on the pool.
  struct Aligned {
    util::Timestamp start = 0;
    std::vector<geo::Point2> points;  // at start + i * grid_step
  };
  std::vector<Aligned> aligned(traces.size());
  util::ParallelForEach(traces.size(), [&](std::size_t i) {
    const model::TraceView& trace = traces[i];
    if (trace.size() < 2) return;
    Aligned& a = aligned[i];
    a.start = trace.time(0);
    const util::Timestamp trace_end = trace.time(trace.size() - 1);
    for (util::Timestamp t = trace.time(0); t <= trace_end;
         t += config.grid_step_s) {
      a.points.push_back(projection.Project(model::InterpolateAt(trace, t)));
    }
  });

  const double delta_sq = config.delta_m * config.delta_m;
  // Companion counting per trace i is independent of every other i (it
  // only reads the aligned grids), so the O(T^2) pair scan fans out; each
  // slot writes its own result, preserving the serial per-trace order.
  std::vector<TraceAnonymity> per_trace(traces.size());
  util::ParallelForEach(traces.size(), [&](std::size_t i) {
    TraceAnonymity anonymity;
    anonymity.trace_index = i;
    anonymity.user = traces[i].user();
    const Aligned& a = aligned[i];
    if (!a.points.empty()) {
      // A companion must cover trace i's full lifetime within delta at
      // every step (minus tolerance).
      const auto allowed_misses = static_cast<std::size_t>(
          config.tolerance * static_cast<double>(a.points.size()));
      for (std::size_t j = 0; j < traces.size(); ++j) {
        if (j == i || aligned[j].points.empty()) continue;
        const Aligned& b = aligned[j];
        // Companion must span trace i's lifetime.
        const util::Timestamp i_end =
            a.start + static_cast<util::Timestamp>(a.points.size() - 1) *
                          config.grid_step_s;
        const util::Timestamp j_end =
            b.start + static_cast<util::Timestamp>(b.points.size() - 1) *
                          config.grid_step_s;
        if (b.start > a.start || j_end < i_end) continue;
        // Offset of a.start within b's grid (same step; align by rounding).
        std::size_t misses = 0;
        bool companion = true;
        for (std::size_t step = 0; step < a.points.size(); ++step) {
          const util::Timestamp t =
              a.start +
              static_cast<util::Timestamp>(step) * config.grid_step_s;
          const auto j_index = static_cast<std::size_t>(
              (t - b.start) / config.grid_step_s);
          if (j_index >= b.points.size()) {
            companion = false;
            break;
          }
          if (geo::DistanceSquared(a.points[step], b.points[j_index]) >
              delta_sq) {
            ++misses;
            if (misses > allowed_misses) {
              companion = false;
              break;
            }
          }
        }
        if (companion) ++anonymity.k;
      }
    }
    per_trace[i] = anonymity;
  });

  std::vector<double> ks;
  ks.reserve(per_trace.size());
  for (const TraceAnonymity& anonymity : per_trace) {
    ks.push_back(static_cast<double>(anonymity.k));
  }
  report.per_trace = std::move(per_trace);
  report.k_distribution = util::Summary::Of(ks);
  return report;
}

}  // namespace mobipriv::metrics
