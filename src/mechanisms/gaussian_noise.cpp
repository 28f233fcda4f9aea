#include "mechanisms/gaussian_noise.h"

#include <cassert>

#include "geo/projection.h"
#include "util/simd.h"

namespace mobipriv::mech {

GaussianNoise::GaussianNoise(GaussianNoiseConfig config) : Configured(config) {
  assert(config_.sigma_m >= 0.0);
}

void GaussianNoise::ApplyToTraceColumns(const model::TraceView& trace,
                                        model::TraceBuffer& out,
                                        util::Rng& rng) const {
  if (trace.empty()) return;
  const geo::LocalProjection projection(trace.BoundingBox().Center());
  const std::size_t n = trace.size();
  const auto rows = out.Extend(n);
  using util::F64x4;
  std::size_t i = 0;
  // RNG draws stay scalar, in the exact per-fix order of the scalar loop
  // (x then y noise per point); only the post-draw coordinate math runs
  // 4-wide. Same ops in the same order -> bit-identical to the tail.
  for (; i + util::kSimdWidth <= n; i += util::kSimdWidth) {
    double nx[4], ny[4];
    for (int k = 0; k < util::kSimdWidth; ++k) {
      nx[k] = rng.Gaussian(0.0, config_.sigma_m);
      ny[k] = rng.Gaussian(0.0, config_.sigma_m);
    }
    const F64x4 lat = F64x4::Set(trace.lat(i), trace.lat(i + 1),
                                 trace.lat(i + 2), trace.lat(i + 3));
    const F64x4 lng = F64x4::Set(trace.lng(i), trace.lng(i + 1),
                                 trace.lng(i + 2), trace.lng(i + 3));
    F64x4 x, y;
    projection.Project4(lat, lng, x, y);
    x = x + F64x4::Load(nx);
    y = y + F64x4::Load(ny);
    F64x4 olat, olng;
    projection.Unproject4(x, y, olat, olng);
    olat.Store(rows.lat + i);
    olng.Store(rows.lng + i);
    rows.time[i] = trace.time(i);
    rows.time[i + 1] = trace.time(i + 1);
    rows.time[i + 2] = trace.time(i + 2);
    rows.time[i + 3] = trace.time(i + 3);
  }
  for (; i < n; ++i) {
    geo::Point2 p = projection.Project(trace.position(i));
    p.x += rng.Gaussian(0.0, config_.sigma_m);
    p.y += rng.Gaussian(0.0, config_.sigma_m);
    const geo::LatLng q = projection.Unproject(p);
    rows.lat[i] = q.lat;
    rows.lng[i] = q.lng;
    rows.time[i] = trace.time(i);
  }
}

}  // namespace mobipriv::mech
