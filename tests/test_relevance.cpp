#include <gtest/gtest.h>

#include "core/relevance.hpp"

namespace erpd::core {
namespace {

using geom::Polyline;
using geom::Vec2;

track::PredictedTrajectory traj(Vec2 start, Vec2 dir, double speed,
                                double horizon = 5.0) {
  track::PredictedTrajectory t;
  t.speed = speed;
  t.horizon = horizon;
  const double reach = std::max(speed * horizon, 0.5);
  t.path = Polyline{{start, start + dir.normalized() * (reach + 5.0)}};
  return t;
}

TEST(Relevance, HeadOnCrossingIsHighlyRelevant) {
  // Both objects reach the crossing simultaneously at t = 2.5 s.
  const auto a = traj({-25.0, 0.0}, {1.0, 0.0}, 10.0);
  const auto b = traj({0.0, -25.0}, {0.0, 1.0}, 10.0);
  const auto est = estimate_collision(a, b, 4.5, 4.5);
  ASSERT_TRUE(est.has_value());
  EXPECT_TRUE(est->collides);
  EXPECT_GT(est->relevance, 0.5);
  EXPECT_NEAR(est->collision_point.x, 0.0, 1e-9);
  EXPECT_NEAR(est->collision_point.y, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(est->radius, 4.5);
  // ttc ~ (25 - 4.5) / 10.
  EXPECT_NEAR(est->ttc, 2.05, 0.1);
}

TEST(Relevance, NoCrossingNoEstimate) {
  const auto a = traj({-25.0, 0.0}, {1.0, 0.0}, 10.0);
  const auto b = traj({-25.0, 10.0}, {1.0, 0.0}, 10.0);  // parallel
  EXPECT_FALSE(estimate_collision(a, b, 4.5, 4.5).has_value());
}

TEST(Relevance, DisjointPassingTimesZeroRelevance) {
  // Paper's G vs p example: trajectories cross but at different times.
  const auto a = traj({-8.0, 0.0}, {1.0, 0.0}, 10.0);   // crosses at t=0.8
  const auto b = traj({0.0, -40.0}, {0.0, 1.0}, 10.0);  // crosses at t=4.0
  const auto est = estimate_collision(a, b, 2.0, 2.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_FALSE(est->collides);
  EXPECT_DOUBLE_EQ(est->relevance, 0.0);
  EXPECT_DOUBLE_EQ(est->r_ci, 0.0);
  EXPECT_DOUBLE_EQ(est->r_ttc, 0.0);
}

TEST(Relevance, RelevanceInUnitInterval) {
  for (double offset : {0.0, 5.0, 10.0, 15.0, 20.0}) {
    const auto a = traj({-20.0 - offset, 0.0}, {1.0, 0.0}, 10.0);
    const auto b = traj({0.0, -20.0}, {0.0, 1.0}, 10.0);
    const auto est = estimate_collision(a, b, 4.5, 4.5);
    if (!est) continue;
    EXPECT_GE(est->relevance, 0.0);
    EXPECT_LE(est->relevance, 1.0);
    EXPECT_GE(est->r_ci, 0.0);
    EXPECT_LE(est->r_ci, 1.0);
    EXPECT_GE(est->r_ttc, 0.0);
    EXPECT_LE(est->r_ttc, 1.0);
  }
}

TEST(Relevance, EarlierCollisionMoreRelevant) {
  // Same geometry, but one pair meets sooner -> higher R_ttc.
  const auto near_a = traj({-10.0, 0.0}, {1.0, 0.0}, 10.0);
  const auto near_b = traj({0.0, -10.0}, {0.0, 1.0}, 10.0);
  const auto far_a = traj({-35.0, 0.0}, {1.0, 0.0}, 10.0);
  const auto far_b = traj({0.0, -35.0}, {0.0, 1.0}, 10.0);
  const auto e_near = estimate_collision(near_a, near_b, 4.5, 4.5);
  const auto e_far = estimate_collision(far_a, far_b, 4.5, 4.5);
  ASSERT_TRUE(e_near && e_far);
  EXPECT_GT(e_near->r_ttc, e_far->r_ttc);
  EXPECT_GT(e_near->relevance, e_far->relevance);
}

TEST(Relevance, RadiusIsMaxObjectLength) {
  const auto a = traj({-20.0, 0.0}, {1.0, 0.0}, 10.0);
  const auto b = traj({0.0, -20.0}, {0.0, 1.0}, 10.0);
  const auto est = estimate_collision(a, b, 8.5, 0.5);  // truck vs pedestrian
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->radius, 8.5);
}

TEST(Relevance, BeyondHorizonIgnored) {
  // Crossing exists but is 10 s away with a 5 s horizon.
  const auto a = traj({-100.0, 0.0}, {1.0, 0.0}, 10.0);
  const auto b = traj({0.0, -100.0}, {0.0, 1.0}, 10.0);
  const auto est = estimate_collision(a, b, 4.5, 4.5);
  // The sliced paths (50 m) never reach the crossing at 100 m.
  EXPECT_FALSE(est.has_value());
}

TEST(Relevance, StationaryObjectInsideAreaCollides) {
  // A stopped vehicle sitting at the crossing is relevant to an approaching
  // one: passing intervals overlap for the whole horizon.
  auto stopped = traj({0.0, 0.0}, {0.0, 1.0}, 0.0);
  const auto mover = traj({-20.0, 0.0}, {1.0, 0.0}, 10.0);
  // Force a crossing: stopped trajectory is a short stub across the mover's
  // path at the origin.
  stopped.path = Polyline{{{0.0, -0.3}, {0.0, 0.3}}};
  const auto est = estimate_collision(mover, stopped, 4.5, 4.5);
  ASSERT_TRUE(est.has_value());
  EXPECT_TRUE(est->collides);
  EXPECT_GT(est->relevance, 0.3);
}

TEST(Relevance, CollisionIntervalIoU) {
  // Identical objects arriving together: intervals coincide -> R_ci = 1.
  const auto a = traj({-20.0, 0.0}, {1.0, 0.0}, 10.0);
  const auto b = traj({0.0, -20.0}, {0.0, 1.0}, 10.0);
  const auto est = estimate_collision(a, b, 4.0, 4.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->r_ci, 1.0, 0.05);
}

TEST(FollowerRelevance, UnsafeFollowerInheritsDecayedRelevance) {
  FollowerRelevanceConfig cfg;
  cfg.alpha = 0.8;
  // 3 m gap at 10 m/s violates everything.
  EXPECT_TRUE(follower_unsafe(3.0, 10.0, cfg));
  EXPECT_DOUBLE_EQ(follower_relevance(0.9, 3.0, 10.0, cfg), 0.72);
}

TEST(FollowerRelevance, SafeFollowerGetsZero) {
  FollowerRelevanceConfig cfg;
  // 40 m gap at 10 m/s satisfies Pipes (10 m/s ~ 22 mph -> ~10 m) and
  // Gipps (15 m).
  EXPECT_FALSE(follower_unsafe(40.0, 10.0, cfg));
  EXPECT_DOUBLE_EQ(follower_relevance(0.9, 40.0, 10.0, cfg), 0.0);
}

TEST(FollowerRelevance, CriterionModes) {
  FollowerRelevanceConfig cfg;
  // Pick a gap violating Gipps (needs 15 m) but satisfying Pipes (~10 m):
  const double gap = 12.0;
  const double v = 10.0;
  cfg.criterion = FollowerCriterion::kViolatesAny;
  EXPECT_TRUE(follower_unsafe(gap, v, cfg));
  cfg.criterion = FollowerCriterion::kViolatesBoth;
  EXPECT_FALSE(follower_unsafe(gap, v, cfg));
}

TEST(FollowerRelevance, AlphaScalesLinearly) {
  FollowerRelevanceConfig cfg;
  cfg.alpha = 0.5;
  EXPECT_DOUBLE_EQ(follower_relevance(0.6, 1.0, 10.0, cfg), 0.3);
  cfg.alpha = 1.0;
  EXPECT_DOUBLE_EQ(follower_relevance(0.6, 1.0, 10.0, cfg), 0.6);
}

TEST(PassingInterval, EntryBeforeStartClipsToZero) {
  // Object starts inside the collision area: entry time clips to 0, exit is
  // distance-to-boundary / speed.
  const auto t = passing_interval(traj({0.0, 0.0}, {1.0, 0.0}, 10.0),
                                  {1.0, 0.0}, 5.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->lo, 0.0);
  EXPECT_DOUBLE_EQ(t->hi, 0.6);
}

TEST(PassingInterval, ExitClipsToHorizon) {
  // Entry inside the horizon, exit beyond it: [0.7, 1.7] clips to [0.7, 1.0].
  track::PredictedTrajectory tr;
  tr.speed = 10.0;
  tr.horizon = 1.0;
  tr.path = Polyline{{{0.0, 0.0}, {100.0, 0.0}}};
  const auto t = passing_interval(tr, {12.0, 0.0}, 5.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->lo, 0.7);
  EXPECT_DOUBLE_EQ(t->hi, 1.0);
}

TEST(PassingInterval, EntirelyBeyondHorizonIsNull) {
  track::PredictedTrajectory tr;
  tr.speed = 10.0;
  tr.horizon = 1.0;
  tr.path = Polyline{{{0.0, 0.0}, {100.0, 0.0}}};
  EXPECT_FALSE(passing_interval(tr, {25.0, 0.0}, 5.0).has_value());
}

TEST(PassingInterval, EntryExactlyAtHorizonIsNull) {
  // Boundary: the passing interval is half-open against the horizon; an
  // entry at exactly t == horizon is already outside it.
  track::PredictedTrajectory tr;
  tr.speed = 10.0;
  tr.horizon = 1.0;
  tr.path = Polyline{{{0.0, 0.0}, {100.0, 0.0}}};
  EXPECT_FALSE(passing_interval(tr, {15.0, 0.0}, 5.0).has_value());
}

TEST(PassingInterval, StationaryInsideCoversWholeHorizon) {
  const auto t =
      passing_interval(traj({1.0, 0.0}, {1.0, 0.0}, 0.0), {0.0, 0.0}, 5.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->lo, 0.0);
  EXPECT_DOUBLE_EQ(t->hi, 5.0);
}

TEST(PassingInterval, StationaryOutsideIsNull) {
  EXPECT_FALSE(
      passing_interval(traj({10.0, 0.0}, {1.0, 0.0}, 0.0), {0.0, 0.0}, 5.0)
          .has_value());
}

TEST(Relevance, GrazingTouchCollidesWithZeroInterval) {
  // Passing intervals [0.5, 1.5] and [1.5, 2.5] touch at exactly one
  // instant. Decision (documented in relevance.cpp): a grazing contact is
  // still a contact — collides=true with a zero-length collision interval,
  // so relevance comes entirely from the TTC term.
  const auto a = traj({-10.0, 0.0}, {1.0, 0.0}, 10.0);
  const auto b = traj({0.0, -20.0}, {0.0, 1.0}, 10.0);
  const auto est = estimate_collision(a, b, 5.0, 5.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_TRUE(est->collides);
  EXPECT_DOUBLE_EQ(est->collision_interval, 0.0);
  EXPECT_DOUBLE_EQ(est->r_ci, 0.0);
  EXPECT_DOUBLE_EQ(est->ttc, 1.5);
  EXPECT_DOUBLE_EQ(est->relevance, 0.5 * (1.0 - 1.5 / 5.0));
}

class SpeedSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpeedSweep, SimultaneousArrivalAlwaysCollides) {
  const double v = GetParam();
  const auto a = traj({-3.0 * v, 0.0}, {1.0, 0.0}, v);
  const auto b = traj({0.0, -3.0 * v}, {0.0, 1.0}, v);
  const auto est = estimate_collision(a, b, 4.5, 4.5);
  ASSERT_TRUE(est.has_value()) << "v=" << v;
  EXPECT_TRUE(est->collides) << "v=" << v;
  EXPECT_GT(est->relevance, 0.3) << "v=" << v;
}

INSTANTIATE_TEST_SUITE_P(Speeds, SpeedSweep,
                         ::testing::Values(5.56, 6.94, 8.33, 9.72, 11.11));

}  // namespace
}  // namespace erpd::core
