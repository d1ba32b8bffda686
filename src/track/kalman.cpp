#include "track/kalman.hpp"

#include "core/check.hpp"

namespace erpd::track {

KalmanCV::KalmanCV(geom::Vec2 position) : KalmanCV(position, geom::Vec2{}) {
  // Unknown velocity: widen the velocity covariance.
  p_[2][2] = kInitVelSigma * kInitVelSigma;
  p_[3][3] = kInitVelSigma * kInitVelSigma;
}

KalmanCV::KalmanCV(geom::Vec2 position, geom::Vec2 velocity) {
  x_ = {position.x, position.y, velocity.x, velocity.y};
  const double pv = kMeasSigma * kMeasSigma;
  p_ = {};
  p_[0][0] = pv;
  p_[1][1] = pv;
  p_[2][2] = 1.0;
  p_[3][3] = 1.0;
}

void KalmanCV::predict(double dt) {
  ERPD_REQUIRE(dt >= 0.0, "KalmanCV::predict: dt must be >= 0, got ", dt);
  // x' = F x with F = [[I, dt*I], [0, I]].
  x_[0] += dt * x_[2];
  x_[1] += dt * x_[3];

  // P' = F P F^T + Q (discrete white-noise acceleration model).
  const double q = kAccelNoise;
  const double dt2 = dt * dt;
  const double dt3 = dt2 * dt;

  std::array<std::array<double, 4>, 4> np{};
  // F P:
  std::array<std::array<double, 4>, 4> fp{};
  for (int j = 0; j < 4; ++j) {
    fp[0][j] = p_[0][j] + dt * p_[2][j];
    fp[1][j] = p_[1][j] + dt * p_[3][j];
    fp[2][j] = p_[2][j];
    fp[3][j] = p_[3][j];
  }
  // (F P) F^T:
  for (int i = 0; i < 4; ++i) {
    np[i][0] = fp[i][0] + dt * fp[i][2];
    np[i][1] = fp[i][1] + dt * fp[i][3];
    np[i][2] = fp[i][2];
    np[i][3] = fp[i][3];
  }
  // Q per axis: [[dt^3/3, dt^2/2], [dt^2/2, dt]] * q.
  np[0][0] += q * dt3 / 3.0;
  np[0][2] += q * dt2 / 2.0;
  np[2][0] += q * dt2 / 2.0;
  np[2][2] += q * dt;
  np[1][1] += q * dt3 / 3.0;
  np[1][3] += q * dt2 / 2.0;
  np[3][1] += q * dt2 / 2.0;
  np[3][3] += q * dt;
  p_ = np;
}

void KalmanCV::update(geom::Vec2 z) {
  // H = [I2 0]; R = meas_sigma^2 I2. Sequential scalar updates are exact for
  // diagonal R.
  const double r = kMeasSigma * kMeasSigma;
  const double zv[2] = {z.x, z.y};
  for (int m = 0; m < 2; ++m) {
    const double innov = zv[m] - x_[m];
    const double s = p_[m][m] + r;
    std::array<double, 4> k{};
    for (int i = 0; i < 4; ++i) k[i] = p_[i][m] / s;
    for (int i = 0; i < 4; ++i) x_[i] += k[i] * innov;
    std::array<std::array<double, 4>, 4> np = p_;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) np[i][j] = p_[i][j] - k[i] * p_[m][j];
    }
    p_ = np;
  }
}

void KalmanCV::update(geom::Vec2 z, geom::Vec2 vel, double vel_sigma) {
  ERPD_REQUIRE(vel_sigma > 0.0,
               "KalmanCV::update: vel_sigma must be > 0, got ", vel_sigma);
  update(z);
  const double r = vel_sigma * vel_sigma;
  const double zv[2] = {vel.x, vel.y};
  for (int mi = 0; mi < 2; ++mi) {
    const int m = 2 + mi;  // velocity components of the state
    const double innov = zv[mi] - x_[m];
    const double s = p_[m][m] + r;
    std::array<double, 4> k{};
    for (int i = 0; i < 4; ++i) k[i] = p_[i][m] / s;
    for (int i = 0; i < 4; ++i) x_[i] += k[i] * innov;
    std::array<std::array<double, 4>, 4> np = p_;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) np[i][j] = p_[i][j] - k[i] * p_[m][j];
    }
    p_ = np;
  }
}

}  // namespace erpd::track
