#pragma once
// Constant-velocity Kalman filter in the plane.
//
// State x = [px, py, vx, vy]; measurements are positions (vehicle uploads
// provide centroids; velocity is observed indirectly). The filter supplies
// the smoothed state the tracker and trajectory predictor consume.

#include <array>

#include "geom/vec2.hpp"

namespace erpd::track {

/// Process noise: white acceleration spectral density (m^2/s^3).
inline constexpr double kAccelNoise = 2.0;
/// Measurement noise std-dev on positions (meters).
inline constexpr double kMeasSigma = 0.4;
/// Initial velocity uncertainty std-dev (m/s).
inline constexpr double kInitVelSigma = 4.0;
static_assert(kAccelNoise >= 0.0 && kMeasSigma > 0.0 && kInitVelSigma > 0.0);

class KalmanCV {
 public:
  explicit KalmanCV(geom::Vec2 position);
  KalmanCV(geom::Vec2 position, geom::Vec2 velocity);

  geom::Vec2 position() const { return {x_[0], x_[1]}; }
  geom::Vec2 velocity() const { return {x_[2], x_[3]}; }
  double speed() const { return velocity().norm(); }

  /// Advance the state by dt (prediction step).
  void predict(double dt);

  /// Fuse a position measurement.
  void update(geom::Vec2 measured_position);

  /// Fuse a position + velocity measurement (extractors estimate velocity
  /// from frame-to-frame displacement).
  void update(geom::Vec2 measured_position, geom::Vec2 measured_velocity,
              double vel_sigma);

  /// Covariance diagonal entries (for tests).
  double var_px() const { return p_[0][0]; }
  double var_vx() const { return p_[2][2]; }

 private:
  std::array<double, 4> x_{};
  std::array<std::array<double, 4>, 4> p_{};  // covariance
};

}  // namespace erpd::track
