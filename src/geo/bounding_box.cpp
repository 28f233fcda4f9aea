#include "geo/bounding_box.h"

#include <algorithm>
#include <cassert>

namespace mobipriv::geo {

GeoBoundingBox::GeoBoundingBox(LatLng south_west, LatLng north_east) noexcept
    : sw_(south_west), ne_(north_east), initialized_(true) {
  assert(south_west.lat <= north_east.lat);
  assert(south_west.lng <= north_east.lng);
}

void GeoBoundingBox::Extend(LatLng p) noexcept {
  sw_.lat = std::min(sw_.lat, p.lat);
  sw_.lng = std::min(sw_.lng, p.lng);
  ne_.lat = std::max(ne_.lat, p.lat);
  ne_.lng = std::max(ne_.lng, p.lng);
  initialized_ = true;
}

void GeoBoundingBox::Extend(const GeoBoundingBox& other) noexcept {
  if (other.IsEmpty()) return;
  Extend(other.sw_);
  Extend(other.ne_);
}

bool GeoBoundingBox::Intersects(const GeoBoundingBox& other) const noexcept {
  if (IsEmpty() || other.IsEmpty()) return false;
  return sw_.lat <= other.ne_.lat && other.sw_.lat <= ne_.lat &&
         sw_.lng <= other.ne_.lng && other.sw_.lng <= ne_.lng;
}

LatLng GeoBoundingBox::Center() const noexcept {
  return {(sw_.lat + ne_.lat) / 2.0, (sw_.lng + ne_.lng) / 2.0};
}

double GeoBoundingBox::DiagonalMeters() const noexcept {
  if (IsEmpty()) return 0.0;
  return HaversineDistance(sw_, ne_);
}

GeoBoundingBox GeoBoundingBox::Of(const std::vector<LatLng>& points) {
  GeoBoundingBox box;
  for (const auto& p : points) box.Extend(p);
  return box;
}

Rect Rect::Of(const std::vector<Point2>& points) {
  assert(!points.empty());
  Rect r{points.front(), points.front()};
  for (const auto& p : points) {
    r.min.x = std::min(r.min.x, p.x);
    r.min.y = std::min(r.min.y, p.y);
    r.max.x = std::max(r.max.x, p.x);
    r.max.y = std::max(r.max.y, p.y);
  }
  return r;
}

}  // namespace mobipriv::geo
