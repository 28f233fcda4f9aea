#include "mechanisms/geo_indistinguishability.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

#include "geo/projection.h"
#include "util/simd.h"

namespace mobipriv::mech {

double LambertWMinus1(double x) {
  assert(x >= -1.0 / std::numbers::e_v<double> && x < 0.0);
  // Initial guess (Barry et al. 2000): accurate near the branch point and
  // for x -> 0^- where W_{-1} -> -inf like ln(-x).
  double w;
  if (x < -0.25) {
    // Near the branch point -1/e: series in sqrt(2(1 + e*x)). The max()
    // guards the exact branch point, where rounding can push the radicand
    // infinitesimally negative.
    const double sigma = std::sqrt(
        std::max(0.0, 2.0 * (1.0 + std::numbers::e_v<double> * x)));
    w = -1.0 - sigma + sigma * sigma / 3.0;
  } else {
    // Asymptotic: W_{-1}(x) ~ ln(-x) - ln(-ln(-x)).
    const double l1 = std::log(-x);
    const double l2 = std::log(-l1);
    w = l1 - l2 + l2 / l1;
  }
  // Halley refinement of f(w) = w*e^w - x.
  for (int iter = 0; iter < 32; ++iter) {
    const double ew = std::exp(w);
    const double f = w * ew - x;
    const double fp = ew * (w + 1.0);
    if (fp == 0.0) break;  // exactly at the branch point w = -1
    const double fpp = ew * (w + 2.0);
    const double denom = fp - 0.5 * f * fpp / fp;
    if (denom == 0.0) break;
    const double delta = f / denom;
    w -= delta;
    if (std::abs(delta) <= 1e-14 * std::max(1.0, std::abs(w))) break;
  }
  return w;
}

double SamplePlanarLaplaceRadius(double epsilon, util::Rng& rng) {
  assert(epsilon > 0.0);
  // p uniform in (0, 1); r = -(1/eps) * (W_{-1}((p-1)/e) + 1).
  double p = rng.NextDouble();
  if (p <= 0.0) p = std::numeric_limits<double>::min();
  if (p >= 1.0) p = 1.0 - 1e-16;
  const double arg = (p - 1.0) / std::numbers::e_v<double>;
  return -(LambertWMinus1(arg) + 1.0) / epsilon;
}

GeoIndistinguishability::GeoIndistinguishability(GeoIndConfig config)
    : Configured(config) {
  assert(config_.epsilon > 0.0);
}

void GeoIndistinguishability::ApplyToTraceColumns(
    const model::TraceView& trace, model::TraceBuffer& out,
    util::Rng& rng) const {
  if (trace.empty()) return;
  const geo::LocalProjection projection(trace.BoundingBox().Center());
  const std::size_t n = trace.size();
  const auto rows = out.Extend(n);
  using util::F64x4;
  std::size_t i = 0;
  // The planar-Laplace draws (radius, angle, and the r*cos/r*sin offset
  // products) stay scalar in the exact per-fix order of the scalar loop;
  // the projection round trip and offset addition run 4-wide. Same ops
  // in the same order -> bit-identical to the tail.
  for (; i + util::kSimdWidth <= n; i += util::kSimdWidth) {
    double ox[4], oy[4];
    for (int k = 0; k < util::kSimdWidth; ++k) {
      const double r = SamplePlanarLaplaceRadius(config_.epsilon, rng);
      const double theta = rng.Angle();
      ox[k] = r * std::cos(theta);
      oy[k] = r * std::sin(theta);
    }
    const F64x4 lat = F64x4::Set(trace.lat(i), trace.lat(i + 1),
                                 trace.lat(i + 2), trace.lat(i + 3));
    const F64x4 lng = F64x4::Set(trace.lng(i), trace.lng(i + 1),
                                 trace.lng(i + 2), trace.lng(i + 3));
    F64x4 x, y;
    projection.Project4(lat, lng, x, y);
    x = x + F64x4::Load(ox);
    y = y + F64x4::Load(oy);
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
    const double r = SamplePlanarLaplaceRadius(config_.epsilon, rng);
    const double theta = rng.Angle();
    geo::Point2 p = projection.Project(trace.position(i));
    p.x += r * std::cos(theta);
    p.y += r * std::sin(theta);
    const geo::LatLng q = projection.Unproject(p);
    rows.lat[i] = q.lat;
    rows.lng[i] = q.lng;
    rows.time[i] = trace.time(i);
  }
}

}  // namespace mobipriv::mech
