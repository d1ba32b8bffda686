#include <gtest/gtest.h>

#include "geom/angle.hpp"
#include "sim/scenario.hpp"

namespace erpd::sim {
namespace {

ScenarioConfig small_cfg(double speed_kmh = 30.0) {
  ScenarioConfig cfg;
  cfg.speed_kmh = speed_kmh;
  cfg.total_vehicles = 14;  // keep tests fast
  cfg.pedestrians = 4;
  cfg.seed = 3;
  return cfg;
}

void run_single(World& w, double seconds) {
  const int steps = static_cast<int>(seconds / kFrameInterval);
  for (int i = 0; i < steps; ++i) w.step();
}

TEST(ScenarioLeftTurn, BuildsRequestedPopulation) {
  const ScenarioConfig cfg = small_cfg();
  Scenario sc = make_unprotected_left_turn(cfg);
  EXPECT_EQ(static_cast<int>(sc.world.vehicles().size()), cfg.total_vehicles);
  EXPECT_NE(sc.ego, kInvalidAgent);
  EXPECT_NE(sc.threat, kInvalidAgent);
  EXPECT_FALSE(sc.occluders.empty());
  EXPECT_TRUE(sc.world.find_vehicle(sc.ego)->params().connected);
}

TEST(ScenarioLeftTurn, ThreatInitiallyOccludedFromEgo) {
  Scenario sc = make_unprotected_left_turn(small_cfg());
  EXPECT_FALSE(sc.world.agent_visible_from(sc.ego, sc.threat))
      << "the waiting truck must hide the oncoming vehicle";
}

TEST(ScenarioLeftTurn, SomeConnectedVehicleSeesThreat) {
  Scenario sc = make_unprotected_left_turn(small_cfg());
  bool seen = false;
  for (const Vehicle& v : sc.world.vehicles()) {
    if (!v.params().connected || v.id() == sc.ego) continue;
    if (sc.world.agent_visible_from(v.id(), sc.threat)) {
      seen = true;
      break;
    }
  }
  EXPECT_TRUE(seen) << "no connected vehicle can observe the threat; the "
                       "edge server could never learn about it";
}

TEST(ScenarioLeftTurn, SingleMethodCollides) {
  // Without any data sharing the scripted conflict must end in a collision
  // (paper Fig. 10: Single is 0% at every speed).
  for (double kmh : {20.0, 30.0, 40.0}) {
    Scenario sc = make_unprotected_left_turn(small_cfg(kmh));
    run_single(sc.world, 20.0);
    EXPECT_TRUE(sc.world.agent_crashed(sc.ego) ||
                sc.world.agent_crashed(sc.threat))
        << "expected an accident at " << kmh << " km/h";
  }
}

TEST(ScenarioLeftTurn, NotifiedEgoAvoidsCollision) {
  // Simulate a perfect dissemination: ego (and its tailgating follower, as
  // the follower-relevance rule would) warned about the threat early.
  Scenario sc = make_unprotected_left_turn(small_cfg());
  sc.world.notify_vehicle(sc.ego, sc.threat);
  if (sc.ego_follower != kInvalidAgent) {
    sc.world.notify_vehicle(sc.ego_follower, sc.threat);
  }
  run_single(sc.world, 20.0);
  EXPECT_FALSE(sc.world.agent_crashed(sc.ego));
  EXPECT_GT(sc.world.min_pair_distance(sc.ego, sc.threat), 0.3);
}

TEST(ScenarioRedLight, BuildsAndOccludes) {
  Scenario sc = make_red_light_violation(small_cfg());
  EXPECT_TRUE(sc.world.find_vehicle(sc.threat)->params().runs_red_light);
  EXPECT_EQ(sc.occluders.size(), 2u);
  EXPECT_FALSE(sc.world.agent_visible_from(sc.ego, sc.threat))
      << "queued trucks must hide the violator from the ego";
}

TEST(ScenarioRedLight, SingleMethodCollides) {
  for (double kmh : {20.0, 30.0, 40.0}) {
    Scenario sc = make_red_light_violation(small_cfg(kmh));
    run_single(sc.world, 20.0);
    EXPECT_TRUE(sc.world.agent_crashed(sc.ego) ||
                sc.world.agent_crashed(sc.threat))
        << "expected an accident at " << kmh << " km/h";
  }
}

TEST(ScenarioRedLight, NotifiedEgoAvoidsCollision) {
  Scenario sc = make_red_light_violation(small_cfg());
  sc.world.notify_vehicle(sc.ego, sc.threat);
  if (sc.ego_follower != kInvalidAgent) {
    sc.world.notify_vehicle(sc.ego_follower, sc.threat);
  }
  run_single(sc.world, 20.0);
  EXPECT_FALSE(sc.world.agent_crashed(sc.ego));
}

TEST(ScenarioPedestrian, OccludedUntilLate) {
  Scenario sc = make_occluded_pedestrian(small_cfg());
  EXPECT_FALSE(sc.world.agent_visible_from(sc.ego, sc.threat))
      << "parked truck must hide the pedestrian initially";
}

TEST(ScenarioPedestrian, ObserverSeesThePedestrian) {
  Scenario sc = make_occluded_pedestrian(small_cfg());
  bool seen = false;
  for (const Vehicle& v : sc.world.vehicles()) {
    if (!v.params().connected || v.id() == sc.ego) continue;
    if (sc.world.agent_visible_from(v.id(), sc.threat)) seen = true;
  }
  EXPECT_TRUE(seen);
}

TEST(ScenarioPedestrian, NotifiedEgoYields) {
  Scenario sc = make_occluded_pedestrian(small_cfg());
  sc.world.notify_vehicle(sc.ego, sc.threat);
  if (sc.ego_follower != kInvalidAgent) {
    sc.world.notify_vehicle(sc.ego_follower, sc.threat);
  }
  run_single(sc.world, 15.0);
  EXPECT_FALSE(sc.world.agent_crashed(sc.ego));
}

TEST(ScenarioDeterminism, SameSeedSameOutcome) {
  auto run = [] {
    Scenario sc = make_unprotected_left_turn(small_cfg());
    run_single(sc.world, 10.0);
    return std::make_tuple(sc.world.collisions().size(),
                           sc.world.find_vehicle(sc.ego)->s(),
                           sc.world.min_pair_distance(sc.ego, sc.threat));
  };
  EXPECT_EQ(run(), run());
}

TEST(Crowd, GeneratesRequestedCount) {
  const RoadNetwork net{RoadConfig{}};
  std::mt19937_64 rng(1);
  const auto crowd = generate_crosswalk_crowd(net, 25, rng);
  EXPECT_EQ(crowd.size(), 25u);
}

TEST(Crowd, PedestriansNearCorners) {
  const RoadNetwork net{RoadConfig{}};
  std::mt19937_64 rng(2);
  const double corner_d = net.box_half() + net.config().crosswalk_offset;
  for (const auto& p : generate_crosswalk_crowd(net, 40, rng)) {
    // Within a few meters of one of the four corners.
    const double dx = std::abs(std::abs(p.position.x) - corner_d);
    const double dy = std::abs(std::abs(p.position.y) - corner_d);
    EXPECT_LT(std::min(dx, dy), 8.0);
    EXPECT_GT(p.speed, 0.5);
  }
}

TEST(Crowd, HeadingsAlongCrosswalkAxes) {
  const RoadNetwork net{RoadConfig{}};
  std::mt19937_64 rng(3);
  for (const auto& p : generate_crosswalk_crowd(net, 40, rng)) {
    // Headings hug one of the four cardinal directions.
    const double h = std::abs(geom::wrap_angle(p.heading));
    const double to_axis =
        std::min({h, std::abs(h - geom::kPi / 2.0), std::abs(h - geom::kPi)});
    EXPECT_LT(to_axis, geom::deg_to_rad(15.0));
  }
}

}  // namespace
}  // namespace erpd::sim
