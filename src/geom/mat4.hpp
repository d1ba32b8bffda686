#pragma once
// Homogeneous 4x4 rigid transforms.
//
// The paper's Coordinate Transformation module computes the LiDAR-to-world
// matrix T_lw from each vehicle's SLAM pose and applies
//   [Wx, Wy, Wz, 1]^T = T_lw * [x, y, z, 1]^T
// to every uploaded point. Mat4 implements exactly that projection rule plus
// the inverse (world-to-LiDAR) used by the sensor model.

#include <array>

#include "geom/vec3.hpp"

namespace erpd::geom {

/// 6-DoF pose of a sensor/vehicle in the world frame.
/// Angles follow the aerospace convention: yaw about +z, pitch about +y,
/// roll about +x, applied in yaw-pitch-roll order.
struct Pose {
  Vec3 position{};
  double yaw{0.0};
  double pitch{0.0};
  double roll{0.0};

  constexpr bool operator==(const Pose&) const = default;
};

class Mat4 {
 public:
  /// Identity transform.
  Mat4();

  /// Row-major construction.
  explicit Mat4(const std::array<double, 16>& rm) : m_(rm) {}

  static Mat4 identity() { return Mat4{}; }
  static Mat4 translation(Vec3 t);
  static Mat4 rotation_z(double yaw);
  static Mat4 rotation_y(double pitch);
  static Mat4 rotation_x(double roll);

  /// Rigid transform mapping sensor-frame coordinates into the world frame
  /// for a sensor at `pose` (this is the paper's T_lw).
  static Mat4 from_pose(const Pose& pose);

  double at(int row, int col) const { return m_[row * 4 + col]; }
  double& at(int row, int col) { return m_[row * 4 + col]; }

  Mat4 operator*(const Mat4& o) const;

  /// Apply to a point (homogeneous w = 1). Inline: per-point call overhead
  /// and re-loading the matrix dominate bulk cloud transforms otherwise.
  Vec3 transform_point(Vec3 p) const {
    return {at(0, 0) * p.x + at(0, 1) * p.y + at(0, 2) * p.z + at(0, 3),
            at(1, 0) * p.x + at(1, 1) * p.y + at(1, 2) * p.z + at(1, 3),
            at(2, 0) * p.x + at(2, 1) * p.y + at(2, 2) * p.z + at(2, 3)};
  }

  /// Inverse of a rigid (rotation + translation) transform. The result is
  /// exact for matrices built from from_pose/translation/rotation_*.
  Mat4 rigid_inverse() const;

  bool almost_equal(const Mat4& o, double eps = 1e-9) const;

 private:
  std::array<double, 16> m_{};  // row-major
};

}  // namespace erpd::geom
