#pragma once
// Oriented bounding box (footprint of a vehicle/pedestrian on the ground
// plane). The simulator uses OBBs for occlusion ray casting and for exact
// collision detection between agents.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/segment.hpp"
#include "geom/vec2.hpp"

namespace erpd::geom {

class Obb {
 public:
  Obb() = default;
  /// `length` along the heading direction, `width` across it.
  Obb(Vec2 center, double heading, double length, double width);

  Vec2 center() const { return center_; }
  double heading() const { return heading_; }
  double length() const { return length_; }
  double width() const { return width_; }

  /// Corners in CCW order: front-left, rear-left, rear-right, front-right.
  std::array<Vec2, 4> corners() const;

  /// Edges as segments between consecutive corners.
  std::array<Segment, 4> edges() const;

  bool contains(Vec2 p) const;

  /// Separating-axis overlap test.
  bool overlaps(const Obb& o) const;

  /// Minimum distance between the two boxes (0 if overlapping).
  double distance_to(const Obb& o) const;

  /// Distance from a point to the box boundary (0 if inside).
  double distance_to(Vec2 p) const;

  /// First intersection parameter t in [0,1] of a ray segment with the box
  /// boundary, or a negative value if it misses. Hits from inside return 0.
  double ray_hit(const Segment& ray) const;

  Aabb aabb() const;

  /// The diagonal — the paper's "maximum length of the object" used as the
  /// collision-area radius is the object's largest planar dimension.
  double max_extent() const { return std::max(length_, width_); }

 private:
  Vec2 center_{};
  double heading_{0.0};
  double length_{0.0};
  double width_{0.0};
};

/// Structure-of-arrays ray-cast context for many boxes sharing one ray
/// origin (the LiDAR eye), built once per scan. Per box it precomputes the
/// four edge segments — hoisting the sincos-heavy corners() out of the
/// per-ray path — and whether the eye is inside the box.
///
/// ray_hit(i, ray) is bit-identical to boxes[i].ray_hit(ray) for any ray
/// anchored at the eye passed to add(): the edges come from the same
/// corners() math and the per-edge test applies the same intersect()
/// arithmetic, so every intermediate double matches the scalar path's.
class ObbRaySoa {
 public:
  /// Append `box`, precomputing its edges and the eye-containment flag.
  void add(const Obb& box, Vec2 eye);

  std::size_t size() const { return eye_inside_.size(); }

  /// Drop every box, keeping the storage for the next eye.
  void clear() {
    edges_.clear();
    eye_inside_.clear();
  }

  /// True if the eye given to add() was inside box i — such boxes return a
  /// hit at t = 0 for every ray, with no edge tests needed.
  bool eye_inside(std::size_t i) const { return eye_inside_[i] != 0; }

  /// First intersection parameter of `ray` with box i's boundary (negative
  /// if it misses); bit-identical to Obb::ray_hit for rays from the eye.
  double ray_hit(std::size_t i, const Segment& ray) const;

 private:
  std::vector<Segment> edges_;  // 4 per box, contiguous
  std::vector<std::uint8_t> eye_inside_;
};

}  // namespace erpd::geom
