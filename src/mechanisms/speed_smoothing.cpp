#include "mechanisms/speed_smoothing.h"

#include <cassert>
#include <cmath>

#include "geo/polyline.h"
#include "util/simd.h"

namespace mobipriv::mech {
namespace {

/// The whole algorithm over a view, appending published fixes to `out`.
/// Appends nothing when the trace is suppressed (too short / too little
/// published geometry).
void SmoothColumns(const model::TraceView& trace, double spacing_m,
                   double min_length_m, model::TraceBuffer& out) {
  if (trace.size() < 2) return;  // nothing publishable
  using util::F64x4;

  // Project on a per-trace tangent plane centred on the trace itself: the
  // projection error is then bounded by the trace extent, not the dataset's.
  // Both the projection pass here and the unprojection pass below run
  // 4-wide with the scalar op order preserved, so published coordinates
  // are bit-identical to the scalar kernel's.
  const geo::LocalProjection projection(trace.BoundingBox().Center());
  std::vector<geo::Point2> path(trace.size());
  std::size_t i = 0;
  for (; i + util::kSimdWidth <= trace.size(); i += util::kSimdWidth) {
    const F64x4 lat = F64x4::Set(trace.lat(i), trace.lat(i + 1),
                                 trace.lat(i + 2), trace.lat(i + 3));
    const F64x4 lng = F64x4::Set(trace.lng(i), trace.lng(i + 1),
                                 trace.lng(i + 2), trace.lng(i + 3));
    F64x4 x, y;
    projection.Project4(lat, lng, x, y);
    double tx[4], ty[4];
    x.Store(tx);
    y.Store(ty);
    for (int k = 0; k < util::kSimdWidth; ++k) {
      path[i + k] = geo::Point2{tx[k], ty[k]};
    }
  }
  for (; i < trace.size(); ++i) {
    path[i] = projection.Project(trace.position(i));
  }

  std::vector<geo::Point2> resampled = geo::ChordResample(path, spacing_m);
  // ChordResample keeps the exact final fix, which usually sits less than
  // one spacing from the previous point. Trim it (as Promesse does) so
  // every published hop is exactly one spacing and the speed is exactly
  // constant; keep it only when it happens to land a full spacing away.
  if (resampled.size() >= 3) {
    const double last_hop = geo::Distance(resampled[resampled.size() - 2],
                                          resampled.back());
    if (last_hop < spacing_m * 0.999) resampled.pop_back();
  }
  // Chord length of the *published* geometry, jitter excluded: a user who
  // never got far from one place yields a near-empty resample and is
  // dropped entirely (publishing it would reveal a single POI).
  if (resampled.size() < 2 ||
      geo::PolylineLength(resampled) < min_length_m) {
    return;
  }

  // Uniform timestamps across the original time span. Interior timestamps
  // are fractional seconds rounded to the nearest second; the rounding error
  // (<= 0.5 s) is the only deviation from exact constant speed.
  const util::Timestamp t0 = trace.time(0);
  const util::Timestamp t1 = trace.time(trace.size() - 1);
  // t1 - t0 without signed overflow (a span may pass INT64_MAX); negating
  // the converted magnitude is exact, so in-range spans keep their bits.
  const double span =
      t1 >= t0 ? static_cast<double>(util::ElapsedSeconds(t0, t1))
               : -static_cast<double>(util::ElapsedSeconds(t1, t0));
  const auto n = resampled.size();
  const auto rows = out.Extend(n);
  const auto time_at = [&](std::size_t k) {
    const double alpha =
        static_cast<double>(k) / static_cast<double>(n - 1);
    return static_cast<util::Timestamp>(
        std::llround(static_cast<double>(t0) + alpha * span));
  };
  std::size_t k = 0;
  for (; k + util::kSimdWidth <= n; k += util::kSimdWidth) {
    const F64x4 x = F64x4::Set(resampled[k].x, resampled[k + 1].x,
                               resampled[k + 2].x, resampled[k + 3].x);
    const F64x4 y = F64x4::Set(resampled[k].y, resampled[k + 1].y,
                               resampled[k + 2].y, resampled[k + 3].y);
    F64x4 olat, olng;
    projection.Unproject4(x, y, olat, olng);
    olat.Store(rows.lat + k);
    olng.Store(rows.lng + k);
    rows.time[k] = time_at(k);
    rows.time[k + 1] = time_at(k + 1);
    rows.time[k + 2] = time_at(k + 2);
    rows.time[k + 3] = time_at(k + 3);
  }
  for (; k < n; ++k) {
    const geo::LatLng q = projection.Unproject(resampled[k]);
    rows.lat[k] = q.lat;
    rows.lng[k] = q.lng;
    rows.time[k] = time_at(k);
  }
}

}  // namespace

SpeedSmoothing::SpeedSmoothing(SpeedSmoothingConfig config)
    : Configured(config) {
  assert(config_.spacing_m > 0.0);
}

model::Trace SpeedSmoothing::Smooth(const model::Trace& trace) const {
  model::TraceBuffer buffer;
  SmoothColumns(trace, config_.spacing_m, config_.min_length_m, buffer);
  return buffer.ToTrace(trace.user());
}

void SpeedSmoothing::ApplyToTraceColumns(const model::TraceView& trace,
                                         model::TraceBuffer& out,
                                         util::Rng& rng) const {
  (void)rng;  // deterministic mechanism
  SmoothColumns(trace, config_.spacing_m, config_.min_length_m, out);
}

}  // namespace mobipriv::mech
