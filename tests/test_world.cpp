#include <gtest/gtest.h>

#include <random>

#include "sim/world.hpp"

namespace erpd::sim {
namespace {

World make_world(WorldConfig wc = {}) {
  return World{RoadNetwork{RoadConfig{}}, wc};
}

VehicleParams cruising_car(double speed) {
  VehicleParams p;
  p.idm.desired_speed = speed;
  return p;
}

TEST(WorldAgents, VehicleFollowsItsRoute) {
  World w = make_world();
  const int route = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const AgentId id = w.add_vehicle(cruising_car(10.0), route, 10.0, 10.0);
  const geom::Vec2 p0 = w.find_vehicle(id)->position(w.network());
  for (int i = 0; i < 20; ++i) w.step();
  const Vehicle* v = w.find_vehicle(id);
  const geom::Vec2 p1 = v->position(w.network());
  // Northbound on a straight route: x fixed, y grows.
  EXPECT_NEAR(p1.x, p0.x, 1e-6);
  EXPECT_GT(p1.y, p0.y + 15.0);
  EXPECT_NEAR(v->speed(), 10.0, 0.5);
}

TEST(WorldAgents, ParkedVehicleNeverMoves) {
  World w = make_world();
  const int route = *w.network().find_route(Arm::kNorth, 0, Maneuver::kLeft);
  VehicleParams p = cruising_car(10.0);
  p.parked = true;
  const AgentId id = w.add_vehicle(p, route, 50.0, 0.0);
  for (int i = 0; i < 30; ++i) w.step();
  EXPECT_DOUBLE_EQ(w.find_vehicle(id)->s(), 50.0);
  EXPECT_DOUBLE_EQ(w.find_vehicle(id)->speed(), 0.0);
}

TEST(WorldAgents, FollowerKeepsDistanceBehindLeader) {
  World w = make_world();
  const int route = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const AgentId lead = w.add_vehicle(cruising_car(6.0), route, 40.0, 6.0);
  const AgentId follow = w.add_vehicle(cruising_car(12.0), route, 15.0, 12.0);
  for (int i = 0; i < 150; ++i) w.step();
  const Vehicle* l = w.find_vehicle(lead);
  const Vehicle* f = w.find_vehicle(follow);
  EXPECT_LT(f->s(), l->s());
  // The faster follower settled near the leader's speed without collision.
  EXPECT_NEAR(f->speed(), 6.0, 1.5);
  EXPECT_TRUE(w.collisions().empty());
}

TEST(WorldAgents, RedLightStopsVehicle) {
  WorldConfig wc;
  wc.signal = {20.0, 3.0, 2.0};
  World w = make_world(wc);
  // East arm faces red during the first phase.
  const int route = *w.network().find_route(Arm::kEast, 1, Maneuver::kStraight);
  const Route& r = w.network().route(route);
  const AgentId id = w.add_vehicle(cruising_car(10.0), route,
                                   r.stop_line_s - 40.0, 10.0);
  for (int i = 0; i < 100; ++i) w.step();  // 10 s, still red for EW
  const Vehicle* v = w.find_vehicle(id);
  EXPECT_LT(v->speed(), 0.3);
  EXPECT_LT(v->s(), r.stop_line_s);
  EXPECT_GT(v->s(), r.stop_line_s - 12.0);
}

TEST(WorldAgents, RedLightViolatorDoesNotStop) {
  WorldConfig wc;
  wc.signal = {20.0, 3.0, 2.0};
  World w = make_world(wc);
  const int route = *w.network().find_route(Arm::kEast, 1, Maneuver::kStraight);
  const Route& r = w.network().route(route);
  VehicleParams p = cruising_car(10.0);
  p.runs_red_light = true;
  const AgentId id = w.add_vehicle(p, route, r.stop_line_s - 40.0, 10.0);
  for (int i = 0; i < 100; ++i) w.step();
  EXPECT_GT(w.find_vehicle(id)->s(), r.box_exit_s);
}

TEST(WorldAgents, GreenLightProceeds) {
  WorldConfig wc;
  wc.signal = {20.0, 3.0, 2.0};
  World w = make_world(wc);
  const int route = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const Route& r = w.network().route(route);
  const AgentId id = w.add_vehicle(cruising_car(10.0), route,
                                   r.stop_line_s - 40.0, 10.0);
  for (int i = 0; i < 100; ++i) w.step();
  EXPECT_TRUE(w.passed_intersection(id));
}

TEST(WorldAgents, PedestrianWalksCrosswalk) {
  World w = make_world();
  geom::Polyline cw = w.network().crosswalk(Arm::kSouth).path;
  const double len = cw.length();
  const AgentId id = w.add_pedestrian(PedestrianParams{}, std::move(cw), 0.0);
  for (int i = 0; i < 50; ++i) w.step();  // 5 s at 1.35 m/s
  const Pedestrian* p = w.find_pedestrian(id);
  EXPECT_NEAR(p->s(), std::min(5.0 * 1.35, len), 0.05);
}

TEST(WorldCollision, HeadOnOverlapDetected) {
  World w = make_world();
  // Two vehicles placed overlapping on crossing routes.
  const int r1 = *w.network().find_route(Arm::kSouth, 0, Maneuver::kLeft);
  const int r2 = *w.network().find_route(Arm::kNorth, 1, Maneuver::kStraight);
  const Route& route1 = w.network().route(r1);
  const Route& route2 = w.network().route(r2);
  const auto cross = route1.path.first_crossing(route2.path);
  ASSERT_TRUE(cross.has_value());
  const AgentId a = w.add_vehicle(cruising_car(5.0), r1, cross->s_this, 5.0);
  const AgentId b = w.add_vehicle(cruising_car(5.0), r2, cross->s_other, 5.0);
  w.step();
  ASSERT_FALSE(w.collisions().empty());
  EXPECT_TRUE(w.agent_crashed(a));
  EXPECT_TRUE(w.agent_crashed(b));
  // Crashed vehicles freeze.
  const double s_after = w.find_vehicle(a)->s();
  for (int i = 0; i < 10; ++i) w.step();
  EXPECT_DOUBLE_EQ(w.find_vehicle(a)->s(), s_after);
}

TEST(WorldVisibility, OccluderBlocksAgentVisibility) {
  World w = make_world();
  const int route = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const AgentId viewer = w.add_vehicle(cruising_car(10.0), route, 10.0, 0.0);
  const AgentId target = w.add_vehicle(cruising_car(10.0), route, 60.0, 0.0);
  EXPECT_TRUE(w.agent_visible_from(viewer, target));
  // Drop a big static box between them.
  const geom::Vec2 mid = (w.find_vehicle(viewer)->position(w.network()) +
                          w.find_vehicle(target)->position(w.network())) *
                         0.5;
  w.add_static_obstacle(geom::Obb{mid, 0.0, 10.0, 10.0}, 5.0);
  EXPECT_FALSE(w.agent_visible_from(viewer, target));
}

TEST(WorldVisibility, RangeLimit) {
  World w = make_world();
  const int route = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const AgentId viewer = w.add_vehicle(cruising_car(10.0), route, 10.0, 0.0);
  const AgentId target = w.add_vehicle(cruising_car(10.0), route, 100.0, 0.0);
  // 90 m apart > 50 m sensor range.
  EXPECT_FALSE(w.agent_visible_from(viewer, target));
}

TEST(WorldHazard, VisibleCrossingHazardTriggersBraking) {
  // The ego is attentive (the VehicleParams default), so it reacts to what
  // it sees.
  World w = make_world();
  const int r1 = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const int r2 = *w.network().find_route(Arm::kWest, 0, Maneuver::kStraight);
  const Route& route1 = w.network().route(r1);
  const Route& route2 = w.network().route(r2);
  const auto cross = route1.path.first_crossing(route2.path);
  ASSERT_TRUE(cross.has_value());
  const double speed = 10.0;
  // Both 4 s from the crossing, mutually visible (no occluders), the
  // crossing vehicle ignores its red light.
  const AgentId ego =
      w.add_vehicle(cruising_car(speed), r1, cross->s_this - 4.0 * speed, speed);
  VehicleParams vp = cruising_car(speed);
  vp.runs_red_light = true;
  w.add_vehicle(vp, r2, cross->s_other - 4.0 * speed, speed);
  bool braked = false;
  for (int i = 0; i < 60; ++i) {
    w.step();
    if (w.find_vehicle(ego)->accel() < -4.0) braked = true;
  }
  EXPECT_TRUE(braked) << "ego saw the crossing hazard but never braked";
  EXPECT_TRUE(w.collisions().empty());
}

TEST(WorldHazard, NotificationBeatsOcclusion) {
  // A hazard the ego cannot see: notification via the edge server makes the
  // driver brake after the reaction delay.
  World w = make_world();
  const int r1 = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const Route& route1 = w.network().route(r1);
  const AgentId ego =
      w.add_vehicle(cruising_car(10.0), r1, route1.stop_line_s - 35.0, 10.0);
  // Stationary pedestrian standing on the ego lane ahead, hidden by a wall.
  geom::Polyline ped_path{{route1.path.point_at(route1.stop_line_s - 5.0),
                           route1.path.point_at(route1.stop_line_s)}};
  PedestrianParams pp;
  pp.walk_speed = 0.0;
  const AgentId ped = w.add_pedestrian(pp, std::move(ped_path), 0.0);
  const geom::Vec2 wall_pos =
      route1.path.point_at(route1.stop_line_s - 18.0) + geom::Vec2{3.0, 0.0};
  w.add_static_obstacle(geom::Obb{wall_pos, 1.3, 8.0, 0.5}, 3.0);

  w.notify_vehicle(ego, ped);
  bool braked = false;
  for (int i = 0; i < 40; ++i) {
    w.step();
    if (w.find_vehicle(ego)->accel() < -4.0) braked = true;
  }
  EXPECT_TRUE(braked);
  EXPECT_TRUE(w.collisions().empty());
  EXPECT_FALSE(w.agent_crashed(ped));
}

TEST(WorldMetrics, PairDistanceTracksMinimum) {
  World w = make_world();
  const int route = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const AgentId a = w.add_vehicle(cruising_car(10.0), route, 10.0, 10.0);
  const AgentId b = w.add_vehicle(cruising_car(2.0), route, 40.0, 2.0);
  for (int i = 0; i < 60; ++i) w.step();
  const double d = w.min_pair_distance(a, b);
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 30.0);
  EXPECT_TRUE(std::isinf(w.min_pair_distance(a, 999)));
}

// find_leader skips the projection of any vehicle beyond leader_reach of
// the follower's route point. Every candidate that passes the unpruned
// tests (lateral <= half a lane, center gap > 0, gap < lookahead) must lie
// within that reach, on every route of the intersection, turns included.
TEST(WorldLeader, ReachBoundsEveryCandidatePassingTheLeaderTests) {
  const RoadNetwork net{RoadConfig{}};
  const double lane = net.config().lane_width;
  const double lookahead = kLeaderLookahead;
  std::mt19937_64 rng{0x1ead'0001};
  const auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  int passing = 0;
  int near_bound = 0;
  for (int i = 0; i < 20000; ++i) {
    const geom::Polyline& path =
        net.routes()[rng() % net.routes().size()].path;
    const double my_len = uni(0.5, 12.0);
    const double other_len = uni(0.5, 12.0);
    const double max_gap = lookahead + 0.5 * (my_len + other_len);
    const double my_s = uni(0.0, std::max(path.length() - max_gap, 1.0));
    // A candidate around the route ahead: near it, half a lane off it at
    // the far end of the gap test, or anywhere in the square around it.
    geom::Vec2 c;
    const geom::Vec2 off = geom::Vec2::from_heading(uni(-M_PI, M_PI));
    switch (rng() % 3) {
      case 0:
        c = path.point_at(my_s + uni(-5.0, max_gap + 5.0)) +
            off * uni(0.0, 0.6 * lane);
        break;
      case 1:
        c = path.point_at(my_s + max_gap - uni(0.0, 0.5)) +
            off * (0.5 * lane * (1.0 - uni(0.0, 1e-9)));
        break;
      default:
        c = path.point_at(my_s) + geom::Vec2{uni(-80.0, 80.0), uni(-80.0, 80.0)};
    }
    double lateral = 0.0;
    const double s_other = path.project(c, &lateral);
    const double center_gap = s_other - my_s;
    const double gap = center_gap - 0.5 * my_len - 0.5 * other_len;
    if (lateral > 0.5 * lane || center_gap <= 0.0 || gap >= lookahead) continue;
    ++passing;
    const double d = distance(c, path.point_at(my_s));
    const double reach = leader_reach(lookahead, lane, my_len, other_len);
    ASSERT_LE(d, reach) << "case " << i;
    if (d > reach - lane) ++near_bound;
  }
  EXPECT_GT(passing, 5000);
  // Many candidates sit within a lane width of the bound.
  EXPECT_GT(near_bound, 500);
}

TEST(WorldMetrics, SnapshotListsActiveAgents) {
  World w = make_world();
  const int route = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  VehicleParams cp = cruising_car(10.0);
  cp.connected = true;
  w.add_vehicle(cp, route, 10.0, 10.0);
  w.add_pedestrian(PedestrianParams{},
                   w.network().crosswalk(Arm::kNorth).path, 0.0);
  const auto snap = w.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_TRUE(snap[0].connected);
  EXPECT_EQ(snap[1].kind, AgentKind::kPedestrian);
}

TEST(WorldHazard, YieldLatchHoldsUntilHazardClears) {
  // A notified driver must stop short of the conflict point and hold there
  // (no creeping) until the hazard has actually passed, then proceed.
  World w = make_world();
  const int r1 = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const int r2 = *w.network().find_route(Arm::kWest, 0, Maneuver::kStraight);
  const Route& route1 = w.network().route(r1);
  const Route& route2 = w.network().route(r2);
  const auto cross = route1.path.first_crossing(route2.path);
  ASSERT_TRUE(cross.has_value());
  const double speed = 8.33;
  VehicleParams ego_p = cruising_car(speed);
  ego_p.attentive = false;
  const AgentId ego = w.add_vehicle(ego_p, r1,
                                    cross->s_this - 6.0 * speed, speed);
  VehicleParams vp = cruising_car(speed);
  vp.runs_red_light = true;
  vp.attentive = false;
  // The hazard starts farther out so the ego must wait for it.
  const AgentId hazard =
      w.add_vehicle(vp, r2, cross->s_other - 8.0 * speed, speed);
  w.notify_vehicle(ego, hazard);

  double min_speed = 1e9;
  double s_at_min = 0.0;
  for (int i = 0; i < 250; ++i) {
    w.step();
    const Vehicle* e = w.find_vehicle(ego);
    if (e->speed() < min_speed) {
      min_speed = e->speed();
      s_at_min = e->s();
    }
  }
  EXPECT_TRUE(w.collisions().empty());
  // It actually yielded...
  EXPECT_LT(min_speed, 1.0);
  // ...stopped short of the conflict point...
  EXPECT_LT(s_at_min, cross->s_this - 2.0);
  // ...and eventually resumed and passed.
  EXPECT_GT(w.find_vehicle(ego)->s(), cross->s_this + 5.0);
}

TEST(WorldHazard, InattentiveIgnoresVisibleConflict) {
  // Same geometry, no notification: the inattentive driver sails into the
  // crossing hazard (the paper's Single behaviour).
  World w = make_world();
  const int r1 = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const int r2 = *w.network().find_route(Arm::kWest, 0, Maneuver::kStraight);
  const Route& route1 = w.network().route(r1);
  const Route& route2 = w.network().route(r2);
  const auto cross = route1.path.first_crossing(route2.path);
  const double speed = 8.33;
  VehicleParams p = cruising_car(speed);
  p.attentive = false;
  const AgentId a =
      w.add_vehicle(p, r1, cross->s_this - 5.0 * speed, speed);
  VehicleParams vp = p;
  vp.runs_red_light = true;
  const AgentId b =
      w.add_vehicle(vp, r2, cross->s_other - 5.0 * speed, speed);
  for (int i = 0; i < 150; ++i) w.step();
  EXPECT_TRUE(w.agent_crashed(a));
  EXPECT_TRUE(w.agent_crashed(b));
}

TEST(WorldHazard, AttentiveYieldsToVisibleConflict) {
  World w = make_world();
  const int r1 = *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const int r2 = *w.network().find_route(Arm::kWest, 0, Maneuver::kStraight);
  const Route& route1 = w.network().route(r1);
  const Route& route2 = w.network().route(r2);
  const auto cross = route1.path.first_crossing(route2.path);
  const double speed = 8.33;
  VehicleParams p = cruising_car(speed);  // attentive by default
  const AgentId a =
      w.add_vehicle(p, r1, cross->s_this - 5.0 * speed, speed);
  VehicleParams vp = p;
  vp.runs_red_light = true;
  w.add_vehicle(vp, r2, cross->s_other - 5.0 * speed, speed);
  for (int i = 0; i < 150; ++i) w.step();
  EXPECT_FALSE(w.agent_crashed(a));
}

TEST(WorldDeterminism, SameSeedSameTrajectory) {
  auto run = [] {
    WorldConfig wc;
    wc.seed = 99;
    World w{RoadNetwork{RoadConfig{}}, wc};
    const int route =
        *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
    VehicleParams p;
    p.idm.desired_speed = 11.0;
    const AgentId id = w.add_vehicle(p, route, 10.0, 8.0);
    for (int i = 0; i < 100; ++i) w.step();
    return w.find_vehicle(id)->s();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace erpd::sim
