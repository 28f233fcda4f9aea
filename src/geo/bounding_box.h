// Axis-aligned bounding boxes, both geographic (degrees) and planar (metres).
// Used for dataset extents, range queries and the spatial grid index.
#pragma once

#include <vector>

#include "geo/latlng.h"
#include "geo/point2.h"

namespace mobipriv::geo {

/// Geographic AABB in degrees. An empty box (no Extend yet) contains nothing.
class GeoBoundingBox {
 public:
  GeoBoundingBox() = default;
  GeoBoundingBox(LatLng south_west, LatLng north_east) noexcept;

  void Extend(LatLng p) noexcept;
  void Extend(const GeoBoundingBox& other) noexcept;

  [[nodiscard]] bool IsEmpty() const noexcept { return !initialized_; }
  /// Closed on all sides; false for empty boxes and NaN coordinates.
  [[nodiscard]] bool Contains(LatLng p) const noexcept {
    return initialized_ && p.lat >= sw_.lat && p.lat <= ne_.lat &&
           p.lng >= sw_.lng && p.lng <= ne_.lng;
  }
  [[nodiscard]] bool Intersects(const GeoBoundingBox& other) const noexcept;
  [[nodiscard]] LatLng SouthWest() const noexcept { return sw_; }
  [[nodiscard]] LatLng NorthEast() const noexcept { return ne_; }
  [[nodiscard]] LatLng Center() const noexcept;
  /// Great-circle length of the box diagonal, metres. 0 for empty boxes.
  [[nodiscard]] double DiagonalMeters() const noexcept;

  /// Smallest box containing all points (empty input -> empty box).
  static GeoBoundingBox Of(const std::vector<LatLng>& points);

 private:
  LatLng sw_{90.0, 180.0};
  LatLng ne_{-90.0, -180.0};
  bool initialized_ = false;
};

/// Planar AABB in metres (after projection). Closed on all sides.
struct Rect {
  Point2 min;  ///< lower-left corner
  Point2 max;  ///< upper-right corner

  [[nodiscard]] constexpr bool Contains(Point2 p) const noexcept {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }
  [[nodiscard]] constexpr bool Intersects(const Rect& o) const noexcept {
    return min.x <= o.max.x && o.min.x <= max.x && min.y <= o.max.y &&
           o.min.y <= max.y;
  }
  [[nodiscard]] constexpr double Width() const noexcept { return max.x - min.x; }
  [[nodiscard]] constexpr double Height() const noexcept {
    return max.y - min.y;
  }
  [[nodiscard]] constexpr double Area() const noexcept {
    return Width() * Height();
  }
  [[nodiscard]] constexpr Point2 Center() const noexcept {
    return {(min.x + max.x) / 2.0, (min.y + max.y) / 2.0};
  }

  /// Smallest rect containing all points. Degenerate (zero-area) rect for a
  /// single point; callers must check for empty input themselves.
  static Rect Of(const std::vector<Point2>& points);
};

}  // namespace mobipriv::geo
