#include <gtest/gtest.h>

#include <random>

#include "track/kalman.hpp"

namespace erpd::track {
namespace {

using geom::Vec2;

TEST(Kalman, InitialState) {
  const KalmanCV kf({3.0, 4.0});
  EXPECT_EQ(kf.position(), Vec2(3.0, 4.0));
  EXPECT_EQ(kf.velocity(), Vec2());
  // Position-only init leaves velocity very uncertain.
  EXPECT_GT(kf.var_vx(), 10.0);
}

TEST(Kalman, InitialStateWithVelocity) {
  const KalmanCV kf(Vec2{0.0, 0.0}, Vec2{5.0, -1.0});
  EXPECT_EQ(kf.velocity(), Vec2(5.0, -1.0));
  EXPECT_LT(kf.var_vx(), 2.0);
}

TEST(Kalman, PredictMovesWithVelocity) {
  KalmanCV kf(Vec2{0.0, 0.0}, Vec2{10.0, 0.0});
  kf.predict(0.5);
  EXPECT_NEAR(kf.position().x, 5.0, 1e-12);
  EXPECT_NEAR(kf.position().y, 0.0, 1e-12);
}

TEST(Kalman, PredictGrowsUncertainty) {
  KalmanCV kf(Vec2{0.0, 0.0}, Vec2{10.0, 0.0});
  const double v0 = kf.var_px();
  kf.predict(1.0);
  EXPECT_GT(kf.var_px(), v0);
  const double v1 = kf.var_px();
  kf.predict(1.0);
  EXPECT_GT(kf.var_px(), v1);
}

TEST(Kalman, UpdateShrinksUncertainty) {
  KalmanCV kf({0.0, 0.0});
  kf.predict(1.0);
  const double before = kf.var_px();
  kf.update({0.5, 0.0});
  EXPECT_LT(kf.var_px(), before);
}

TEST(Kalman, UpdatePullsTowardMeasurement) {
  KalmanCV kf({0.0, 0.0});
  kf.predict(0.1);
  kf.update({1.0, 2.0});
  EXPECT_GT(kf.position().x, 0.3);
  EXPECT_GT(kf.position().y, 0.6);
  EXPECT_LT(kf.position().x, 1.0 + 1e-9);
}

TEST(Kalman, VelocityEstimatedFromPositionsOnly) {
  // Feed positions of an object moving at 8 m/s; the filter must infer the
  // velocity without ever observing it.
  KalmanCV kf({0.0, 0.0});
  for (int i = 1; i <= 30; ++i) {
    kf.predict(0.1);
    kf.update({0.8 * i, 0.0});
  }
  EXPECT_NEAR(kf.velocity().x, 8.0, 0.5);
  EXPECT_NEAR(kf.velocity().y, 0.0, 0.3);
}

TEST(Kalman, VelocityMeasurementSpeedsConvergence) {
  KalmanCV with(Vec2{0.0, 0.0});
  KalmanCV without(Vec2{0.0, 0.0});
  with.predict(0.1);
  with.update({0.8, 0.0}, {8.0, 0.0}, 1.0);
  without.predict(0.1);
  without.update({0.8, 0.0});
  EXPECT_LT(std::abs(with.velocity().x - 8.0),
            std::abs(without.velocity().x - 8.0));
}

TEST(Kalman, TracksNoisyTrajectory) {
  std::mt19937_64 rng(9);
  std::normal_distribution<double> noise(0.0, 0.3);
  KalmanCV kf({0.0, 0.0});
  double true_x = 0.0;
  for (int i = 0; i < 100; ++i) {
    true_x += 0.1 * 6.0;
    kf.predict(0.1);
    kf.update({true_x + noise(rng), noise(rng)});
  }
  EXPECT_NEAR(kf.position().x, true_x, 0.5);
  EXPECT_NEAR(kf.velocity().x, 6.0, 0.8);
  // Smoothing: the estimate should be closer to truth than the raw
  // measurement noise level on average.
  EXPECT_LT(std::abs(kf.position().y), 0.3);
}

}  // namespace
}  // namespace erpd::track
