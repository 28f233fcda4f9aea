#include "mechanisms/cloaking.h"

#include <cassert>
#include <cmath>

#include "geo/projection.h"
#include "util/simd.h"

namespace mobipriv::mech {

Cloaking::Cloaking(CloakingConfig config) : Configured(config) {
  assert(config_.cell_size_m > 0.0);
}

void Cloaking::ApplyToTraceColumns(const model::TraceView& trace,
                                   model::TraceBuffer& out,
                                   util::Rng& rng) const {
  (void)rng;
  if (trace.empty()) return;
  const geo::LocalProjection projection(trace.BoundingBox().Center());
  const double cell = config_.cell_size_m;
  const std::size_t n = trace.size();
  const auto rows = out.Extend(n);
  using util::F64x4;
  // Vector body: project, snap to cell centre, unproject — 4 fixes per
  // step, every operation correctly rounded in the scalar op order, so
  // lanes are bit-identical to the scalar tail below (and to the
  // pre-vectorization kernel).
  const F64x4 vcell = F64x4::Set1(cell);
  const F64x4 vhalf = F64x4::Set1(0.5);
  std::size_t i = 0;
  for (; i + util::kSimdWidth <= n; i += util::kSimdWidth) {
    const F64x4 lat = F64x4::Set(trace.lat(i), trace.lat(i + 1),
                                 trace.lat(i + 2), trace.lat(i + 3));
    const F64x4 lng = F64x4::Set(trace.lng(i), trace.lng(i + 1),
                                 trace.lng(i + 2), trace.lng(i + 3));
    F64x4 x, y;
    projection.Project4(lat, lng, x, y);
    x = (util::Floor(x / vcell) + vhalf) * vcell;
    y = (util::Floor(y / vcell) + vhalf) * vcell;
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
    const geo::Point2 p = projection.Project(trace.position(i));
    const geo::Point2 snapped{(std::floor(p.x / cell) + 0.5) * cell,
                              (std::floor(p.y / cell) + 0.5) * cell};
    const geo::LatLng q = projection.Unproject(snapped);
    rows.lat[i] = q.lat;
    rows.lng[i] = q.lng;
    rows.time[i] = trace.time(i);
  }
}

}  // namespace mobipriv::mech
