#include "geom/obb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace erpd::geom {

Obb::Obb(Vec2 center, double heading, double length, double width)
    : center_(center), heading_(heading), length_(length), width_(width) {}

std::array<Vec2, 4> Obb::corners() const {
  const Vec2 fwd = Vec2::from_heading(heading_) * (length_ * 0.5);
  const Vec2 left = Vec2::from_heading(heading_).perp() * (width_ * 0.5);
  return {center_ + fwd + left, center_ - fwd + left, center_ - fwd - left,
          center_ + fwd - left};
}

std::array<Segment, 4> Obb::edges() const {
  const auto c = corners();
  return {Segment{c[0], c[1]}, Segment{c[1], c[2]}, Segment{c[2], c[3]},
          Segment{c[3], c[0]}};
}

bool Obb::contains(Vec2 p) const {
  constexpr double kEps = 1e-9;  // boundary points count as inside
  const Vec2 d = p - center_;
  const Vec2 fwd = Vec2::from_heading(heading_);
  const double lx = d.dot(fwd);
  const double ly = d.dot(fwd.perp());
  return std::abs(lx) <= length_ * 0.5 + kEps &&
         std::abs(ly) <= width_ * 0.5 + kEps;
}

namespace {

// Project corners onto an axis and return [min, max].
std::pair<double, double> project(const std::array<Vec2, 4>& pts, Vec2 axis) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const Vec2& p : pts) {
    const double v = p.dot(axis);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

}  // namespace

bool Obb::overlaps(const Obb& o) const {
  const auto ca = corners();
  const auto cb = o.corners();
  const Vec2 axes[4] = {Vec2::from_heading(heading_),
                        Vec2::from_heading(heading_).perp(),
                        Vec2::from_heading(o.heading_),
                        Vec2::from_heading(o.heading_).perp()};
  for (const Vec2& axis : axes) {
    const auto [alo, ahi] = project(ca, axis);
    const auto [blo, bhi] = project(cb, axis);
    if (ahi < blo || bhi < alo) return false;
  }
  return true;
}

double Obb::distance_to(const Obb& o) const {
  if (overlaps(o)) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const Segment& ea : edges()) {
    for (const Segment& eb : o.edges()) {
      // Segments of non-overlapping boxes cannot cross, so the minimum is
      // attained at an endpoint against the other segment.
      best = std::min(best, point_segment_distance(ea.a, eb));
      best = std::min(best, point_segment_distance(ea.b, eb));
      best = std::min(best, point_segment_distance(eb.a, ea));
      best = std::min(best, point_segment_distance(eb.b, ea));
    }
  }
  return best;
}

double Obb::distance_to(Vec2 p) const {
  if (contains(p)) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const Segment& e : edges()) {
    best = std::min(best, point_segment_distance(p, e));
  }
  return best;
}

double Obb::ray_hit(const Segment& ray) const {
  if (contains(ray.a)) return 0.0;
  double best = -1.0;
  for (const Segment& e : edges()) {
    if (const auto hit = intersect(ray, e)) {
      if (best < 0.0 || hit->t_first < best) best = hit->t_first;
    }
  }
  return best;
}

Aabb Obb::aabb() const {
  Aabb box;
  for (const Vec2& c : corners()) box.expand(c);
  return box;
}

void ObbRaySoa::add(const Obb& box, Vec2 eye) {
  const auto e = box.edges();
  edges_.insert(edges_.end(), e.begin(), e.end());
  eye_inside_.push_back(box.contains(eye) ? 1 : 0);
}

double ObbRaySoa::ray_hit(std::size_t i, const Segment& ray) const {
  if (eye_inside_[i] != 0) return 0.0;
  const Segment* e = edges_.data() + 4 * i;
  // Same fold as Obb::ray_hit, over the precomputed edges.
  double best = -1.0;
  for (int k = 0; k < 4; ++k) {
    if (const auto hit = intersect(ray, e[k])) {
      if (best < 0.0 || hit->t_first < best) best = hit->t_first;
    }
  }
  return best;
}

}  // namespace erpd::geom
