#include <gtest/gtest.h>

#include "core/check.hpp"

#include "geom/angle.hpp"
#include "sim/road_network.hpp"

namespace erpd::sim {
namespace {

using geom::Vec2;

TEST(RoadNetwork, ArmDirections) {
  EXPECT_EQ(RoadNetwork::arm_direction(Arm::kNorth), Vec2(0.0, 1.0));
  EXPECT_EQ(RoadNetwork::arm_direction(Arm::kEast), Vec2(1.0, 0.0));
  EXPECT_EQ(RoadNetwork::arm_direction(Arm::kSouth), Vec2(0.0, -1.0));
  EXPECT_EQ(RoadNetwork::arm_direction(Arm::kWest), Vec2(-1.0, 0.0));
}

TEST(RoadNetwork, OppositeArms) {
  EXPECT_EQ(RoadNetwork::opposite(Arm::kNorth), Arm::kSouth);
  EXPECT_EQ(RoadNetwork::opposite(Arm::kEast), Arm::kWest);
}

TEST(RoadNetwork, ExitArms) {
  // Northbound (entering from the south arm): left exits west, right east.
  EXPECT_EQ(RoadNetwork::exit_arm(Arm::kSouth, Maneuver::kStraight),
            Arm::kNorth);
  EXPECT_EQ(RoadNetwork::exit_arm(Arm::kSouth, Maneuver::kLeft), Arm::kWest);
  EXPECT_EQ(RoadNetwork::exit_arm(Arm::kSouth, Maneuver::kRight), Arm::kEast);
  // Westbound (entering from the east arm): left exits south.
  EXPECT_EQ(RoadNetwork::exit_arm(Arm::kEast, Maneuver::kLeft), Arm::kSouth);
}

TEST(RoadNetwork, RouteCountTwoLanes) {
  const RoadNetwork net{RoadConfig{}};
  // Per arm: lane0 {left, straight} + lane1 {straight, right} = 4 routes.
  EXPECT_EQ(net.routes().size(), 16u);
}

TEST(RoadNetwork, RouteCountOneLane) {
  RoadConfig cfg;
  cfg.lanes_per_direction = 1;
  const RoadNetwork net{cfg};
  EXPECT_EQ(net.routes().size(), 12u);  // 3 maneuvers x 4 arms
}

TEST(RoadNetwork, InvalidConfigThrows) {
  RoadConfig bad;
  bad.lanes_per_direction = 0;
  EXPECT_THROW(RoadNetwork{bad}, erpd::ContractViolation);
  RoadConfig short_arm;
  short_arm.arm_length = 5.0;
  EXPECT_THROW(RoadNetwork{short_arm}, erpd::ContractViolation);
}

TEST(RoadNetwork, RightHandTrafficLaneSides) {
  const RoadNetwork net{RoadConfig{}};
  // Northbound approach (south arm): incoming lanes on the east side (x>0).
  const Route& r =
      net.route(*net.find_route(Arm::kSouth, 0, Maneuver::kStraight));
  const Vec2 start = r.path.points().front();
  EXPECT_GT(start.x, 0.0);
  EXPECT_LT(start.y, 0.0);
  // Lane 1 is farther right (larger x).
  const Route& r1 =
      net.route(*net.find_route(Arm::kSouth, 1, Maneuver::kStraight));
  EXPECT_GT(r1.path.points().front().x, start.x);
}

TEST(RoadNetwork, StraightRouteIsStraight) {
  const RoadNetwork net{RoadConfig{}};
  const Route& r =
      net.route(*net.find_route(Arm::kSouth, 1, Maneuver::kStraight));
  // x stays constant along a straight northbound route.
  const double x0 = r.path.points().front().x;
  for (const Vec2& p : r.path.points()) {
    EXPECT_NEAR(p.x, x0, 1e-9);
  }
  // Full length = two arm lengths.
  EXPECT_NEAR(r.path.length(), 2.0 * net.config().arm_length, 1e-6);
}

TEST(RoadNetwork, LeftTurnEndsHeadingWest) {
  const RoadNetwork net{RoadConfig{}};
  const Route& r = net.route(*net.find_route(Arm::kSouth, 0, Maneuver::kLeft));
  EXPECT_EQ(r.exit_arm, Arm::kWest);
  const double end_heading = r.path.heading_at(r.path.length() - 0.5);
  EXPECT_NEAR(geom::angle_dist(end_heading, geom::kPi), 0.0, 0.05);
}

TEST(RoadNetwork, RightTurnIsTighterThanLeft) {
  const RoadNetwork net{RoadConfig{}};
  const Route& left =
      net.route(*net.find_route(Arm::kSouth, 0, Maneuver::kLeft));
  const Route& right =
      net.route(*net.find_route(Arm::kSouth, 1, Maneuver::kRight));
  // Arc inside the box: right turns hug the corner, left turns sweep wide.
  const double left_arc = left.box_exit_s - left.box_entry_s;
  const double right_arc = right.box_exit_s - right.box_entry_s;
  EXPECT_GT(left_arc, right_arc);
}

TEST(RoadNetwork, StopLineBeforeBox) {
  const RoadNetwork net{RoadConfig{}};
  for (const Route& r : net.routes()) {
    EXPECT_LT(r.stop_line_s, r.box_entry_s + 1e-9);
    EXPECT_LT(r.box_entry_s, r.box_exit_s);
    EXPECT_FALSE(net.in_intersection(r.path.point_at(r.stop_line_s - 1.0)));
    EXPECT_TRUE(net.in_intersection(
        r.path.point_at((r.box_entry_s + r.box_exit_s) / 2)));
  }
}

TEST(RoadNetwork, CrossingRoutesIntersectInsideBox) {
  const RoadNetwork net{RoadConfig{}};
  const Route& left =
      net.route(*net.find_route(Arm::kSouth, 0, Maneuver::kLeft));
  const Route& oncoming =
      net.route(*net.find_route(Arm::kNorth, 1, Maneuver::kStraight));
  const auto c = left.path.first_crossing(oncoming.path);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(net.in_intersection(c->point));
}

TEST(RoadNetwork, ParallelRoutesDoNotCross) {
  const RoadNetwork net{RoadConfig{}};
  const Route& a =
      net.route(*net.find_route(Arm::kSouth, 0, Maneuver::kStraight));
  const Route& b =
      net.route(*net.find_route(Arm::kSouth, 1, Maneuver::kStraight));
  EXPECT_FALSE(a.path.first_crossing(b.path).has_value());
}

TEST(RoadNetwork, CrosswalksSpanTheRoad) {
  const RoadNetwork net{RoadConfig{}};
  EXPECT_EQ(net.crosswalks().size(), 4u);
  const Crosswalk& cw = net.crosswalk(Arm::kSouth);
  const double road_width =
      2.0 * net.config().lanes_per_direction * net.config().lane_width;
  EXPECT_GT(cw.path.length(), road_width);
  // South crosswalk sits south of the box.
  EXPECT_LT(cw.path.point_at(0.0).y, -net.box_half());
}

TEST(RoadNetwork, FindRouteHonoursLanePermissions) {
  const RoadNetwork net{RoadConfig{}};
  // The inner lane turns left or goes straight; only the outer turns right.
  EXPECT_TRUE(net.find_route(Arm::kEast, 0, Maneuver::kLeft).has_value());
  EXPECT_TRUE(net.find_route(Arm::kEast, 0, Maneuver::kStraight).has_value());
  EXPECT_FALSE(net.find_route(Arm::kEast, 0, Maneuver::kRight).has_value());
  EXPECT_TRUE(net.find_route(Arm::kEast, 1, Maneuver::kRight).has_value());
}

TEST(Signal, PhasesAreExclusive) {
  const SignalController sig{SignalController::Timing{20.0, 3.0, 2.0}};
  for (double t = 0.0; t < sig.cycle_length(); t += 0.5) {
    const bool ns_green =
        sig.state(Arm::kNorth, t) == SignalController::Light::kGreen;
    const bool ew_green =
        sig.state(Arm::kEast, t) == SignalController::Light::kGreen;
    EXPECT_FALSE(ns_green && ew_green) << "conflicting greens at t=" << t;
  }
}

TEST(Signal, CycleStructure) {
  const SignalController sig{SignalController::Timing{20.0, 3.0, 2.0}};
  EXPECT_DOUBLE_EQ(sig.cycle_length(), 50.0);
  EXPECT_EQ(sig.state(Arm::kNorth, 0.0), SignalController::Light::kGreen);
  EXPECT_EQ(sig.state(Arm::kSouth, 10.0), SignalController::Light::kGreen);
  EXPECT_EQ(sig.state(Arm::kNorth, 21.0), SignalController::Light::kYellow);
  EXPECT_EQ(sig.state(Arm::kNorth, 24.0), SignalController::Light::kRed);
  EXPECT_EQ(sig.state(Arm::kEast, 10.0), SignalController::Light::kRed);
  EXPECT_EQ(sig.state(Arm::kEast, 26.0), SignalController::Light::kGreen);
}

TEST(Signal, TimeToGreen) {
  const SignalController sig{SignalController::Timing{20.0, 3.0, 2.0}};
  EXPECT_DOUBLE_EQ(sig.time_to_green(Arm::kNorth, 5.0), 0.0);
  const double wait = sig.time_to_green(Arm::kEast, 0.0);
  EXPECT_NEAR(wait, 25.0, 0.2);
}

TEST(Signal, WrapsAcrossCycles) {
  const SignalController sig{SignalController::Timing{20.0, 3.0, 2.0}};
  EXPECT_EQ(sig.state(Arm::kNorth, 50.0), SignalController::Light::kGreen);
  EXPECT_EQ(sig.state(Arm::kNorth, 100.0 + 21.0),
            SignalController::Light::kYellow);
}

}  // namespace
}  // namespace erpd::sim
