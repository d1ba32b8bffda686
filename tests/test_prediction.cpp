#include <gtest/gtest.h>

#include "geom/angle.hpp"
#include "track/prediction.hpp"

namespace erpd::track {
namespace {

using geom::Vec2;
using sim::Arm;
using sim::Maneuver;

class PredictionTest : public ::testing::Test {
 protected:
  sim::RoadNetwork net_{sim::RoadConfig{}};
  TrajectoryPredictor predictor_{net_};
};

TEST_F(PredictionTest, MatchRouteOnApproachLane) {
  const sim::Route& r =
      net_.route(*net_.find_route(Arm::kSouth, 1, Maneuver::kStraight));
  const Vec2 pos = r.path.point_at(30.0);
  const double heading = r.path.heading_at(30.0);
  const auto m = match_route(net_, pos, heading);
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->s, 30.0, 0.5);
  EXPECT_LT(m->lateral, 0.2);
}

TEST_F(PredictionTest, NoMatchWhenHeadingOpposes) {
  const sim::Route& r =
      net_.route(*net_.find_route(Arm::kSouth, 1, Maneuver::kStraight));
  const Vec2 pos = r.path.point_at(30.0);
  const double heading = r.path.heading_at(30.0) + geom::kPi;  // wrong way
  // The opposing lane is a different route; the matched route (if any) must
  // head the same way as the query.
  const auto m = match_route(net_, pos, heading);
  if (m) {
    const double h = net_.route(m->route_id).path.heading_at(m->s);
    EXPECT_LT(geom::angle_dist(h, heading), geom::deg_to_rad(40.0));
  }
}

TEST_F(PredictionTest, NoMatchOffRoad) {
  EXPECT_FALSE(match_route(net_, {300.0, 300.0}, 0.0).has_value());
}

TEST_F(PredictionTest, CommittedTurnPredictedThroughTheTurn) {
  // A vehicle already inside the curve is unambiguous: the single-best
  // prediction follows the turn.
  const sim::Route& r =
      net_.route(*net_.find_route(Arm::kSouth, 0, Maneuver::kLeft));
  const double s0 = r.box_entry_s + 4.0;
  const Vec2 pos = r.path.point_at(s0);
  const Vec2 vel = r.path.tangent_at(s0) * 8.0;
  const PredictedTrajectory traj =
      predictor_.predict(pos, vel, sim::AgentKind::kCar);
  EXPECT_NEAR(traj.speed, 8.0, 1e-9);
  const Vec2 end = traj.path.point_at(traj.reach() - 0.5);
  EXPECT_LT(end.x, -5.0) << "prediction failed to follow the left turn";
}

TEST_F(PredictionTest, ApproachAmbiguityPrefersStraight) {
  // On the shared approach the lane intent is unknowable; the single-best
  // prediction deterministically resolves to the straight route.
  const sim::Route& r =
      net_.route(*net_.find_route(Arm::kSouth, 0, Maneuver::kLeft));
  const double s0 = r.stop_line_s - 5.0;
  const PredictedTrajectory traj = predictor_.predict(
      r.path.point_at(s0), r.path.tangent_at(s0) * 8.0, sim::AgentKind::kCar);
  const Vec2 end = traj.path.points().back();
  EXPECT_NEAR(end.x, r.path.point_at(s0).x, 0.6);
  EXPECT_GT(end.y, 0.0);
}

TEST_F(PredictionTest, HypothesesCoverAllManeuvers) {
  // At the same ambiguous spot, the hypothesis set contains both the
  // straight and the left-turn trajectory (lane 0 permits both).
  const sim::Route& r =
      net_.route(*net_.find_route(Arm::kSouth, 0, Maneuver::kLeft));
  const double s0 = r.stop_line_s - 5.0;
  const auto hyps = predictor_.predict_hypotheses(
      r.path.point_at(s0), r.path.tangent_at(s0) * 8.0, sim::AgentKind::kCar);
  ASSERT_GE(hyps.size(), 2u);
  bool has_straight = false;
  bool has_left = false;
  for (const auto& h : hyps) {
    const Vec2 end = h.path.points().back();
    if (end.x < -3.0) has_left = true;
    if (std::abs(end.x - r.path.point_at(s0).x) < 0.6 && end.y > 0.0) {
      has_straight = true;
    }
  }
  EXPECT_TRUE(has_straight);
  EXPECT_TRUE(has_left);
}

TEST_F(PredictionTest, HypothesesFallBackToSinglePrediction) {
  const auto hyps = predictor_.predict_hypotheses(
      {300.0, 300.0}, {5.0, 0.0}, sim::AgentKind::kCar);
  ASSERT_EQ(hyps.size(), 1u);
  EXPECT_NEAR(hyps[0].path.points().back().y, 300.0, 1e-9);
}

TEST_F(PredictionTest, PredictionStartsAtActualPosition) {
  const sim::Route& r =
      net_.route(*net_.find_route(Arm::kSouth, 1, Maneuver::kStraight));
  // Vehicle slightly off the lane centerline.
  const Vec2 pos = r.path.point_at(20.0) + Vec2{0.5, 0.0};
  const Vec2 vel = r.path.tangent_at(20.0) * 10.0;
  const PredictedTrajectory traj =
      predictor_.predict(pos, vel, sim::AgentKind::kCar);
  EXPECT_LT(distance(traj.path.point_at(0.0), pos), 0.1);
}

TEST_F(PredictionTest, PedestrianIsStraightLine) {
  const PredictedTrajectory traj =
      predictor_.predict({0.0, -10.0}, {1.4, 0.0}, sim::AgentKind::kPedestrian);
  EXPECT_NEAR(traj.path.length(), 1.4 * traj.horizon, 0.6);
  const Vec2 end = traj.path.points().back();
  EXPECT_NEAR(end.y, -10.0, 1e-9);
  EXPECT_GT(end.x, 5.0);
}

TEST_F(PredictionTest, StationaryObjectShortPath) {
  const PredictedTrajectory traj =
      predictor_.predict({5.0, 5.0}, {0.0, 0.0}, sim::AgentKind::kCar);
  EXPECT_LT(traj.path.length(), 1.0);
  EXPECT_DOUBLE_EQ(traj.speed, 0.0);
}

TEST_F(PredictionTest, ReachBoundsPath) {
  const PredictedTrajectory traj =
      predictor_.predict({0.0, -40.0}, {0.0, 12.0}, sim::AgentKind::kCar);
  EXPECT_LE(traj.path.length(), traj.reach() + 2.0);
}

class HorizonSweep : public ::testing::TestWithParam<double> {};

TEST_P(HorizonSweep, PositionAtHorizonMatchesSpeedTimesTime) {
  sim::RoadNetwork net{sim::RoadConfig{}};
  PredictorConfig cfg;
  cfg.horizon = GetParam();
  TrajectoryPredictor pred(net, cfg);
  const auto traj = pred.predict({0.0, -200.0}, {0.0, 10.0},
                                 sim::AgentKind::kCar);
  EXPECT_DOUBLE_EQ(traj.horizon, GetParam());
  // Off-road (south of the arm): straight-line prediction.
  const Vec2 end = traj.position_at(GetParam());
  EXPECT_NEAR(end.y, -200.0 + 10.0 * GetParam(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Horizons, HorizonSweep,
                         ::testing::Values(2.0, 4.0, 5.0, 8.0));

}  // namespace
}  // namespace erpd::track
