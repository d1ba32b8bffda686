#include <gtest/gtest.h>

#include "track/rules.hpp"

namespace erpd::track {
namespace {

using geom::Vec2;
using sim::Arm;
using sim::Maneuver;

class RulesTest : public ::testing::Test {
 protected:
  sim::RoadNetwork net_{sim::RoadConfig{}};
  MultiObjectTracker tracker_;
  RuleEngine rules_{net_};

  /// Feed the tracker a detection twice so the track confirms; returns id.
  int add_confirmed(Vec2 pos, Vec2 vel,
                    sim::AgentKind kind = sim::AgentKind::kCar) {
    Detection d;
    d.kind = kind;
    d.payload_bytes = 800;
    d.velocity = vel;
    d.position = pos - vel * 0.1;
    pending_.push_back(d);
    return next_expected_id_++;
  }

  RepresentativeSet select() {
    tracker_.step(pending_, 0.0);
    for (auto& d : pending_) d.position += d.velocity.value_or(Vec2{}) * 0.1;
    tracker_.step(pending_, 0.1);
    return rules_.select(tracker_.confirmed());
  }

  /// Place a vehicle on a route at arc length s moving at `speed`.
  int vehicle_on_route(int route_id, double s, double speed) {
    const sim::Route& r = net_.route(route_id);
    const Vec2 pos = r.path.point_at(s);
    const Vec2 vel = r.path.tangent_at(s) * speed;
    return add_confirmed(pos, vel);
  }

  std::vector<Detection> pending_;
  int next_expected_id_{0};
};

TEST_F(RulesTest, Rule1OnlyLeaderPredicted) {
  const int route = *net_.find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const sim::Route& r = net_.route(route);
  const int back = vehicle_on_route(route, r.stop_line_s - 40.0, 8.0);
  const int front = vehicle_on_route(route, r.stop_line_s - 15.0, 8.0);
  const int middle = vehicle_on_route(route, r.stop_line_s - 27.0, 8.0);
  const auto reps = select();

  ASSERT_EQ(reps.lane_queues.size(), 1u);
  const LaneQueue& q = reps.lane_queues[0];
  ASSERT_EQ(q.track_ids.size(), 3u);
  EXPECT_EQ(q.track_ids[0], front);
  EXPECT_EQ(q.track_ids[1], middle);
  EXPECT_EQ(q.track_ids[2], back);

  EXPECT_TRUE(reps.is_predicted(front));
  EXPECT_FALSE(reps.is_predicted(middle));
  EXPECT_FALSE(reps.is_predicted(back));
  // Follower chain: middle follows front, back follows middle, each behind
  // its leader along the route.
  EXPECT_GT(q.arc_lengths[0], q.arc_lengths[1]);
  EXPECT_GT(q.arc_lengths[1], q.arc_lengths[2]);
  // Each snapped vehicle keeps its route fits for prediction: one scan each.
  EXPECT_EQ(reps.route_fits.size(), 3u);
  EXPECT_FALSE(reps.route_fits.at(front).empty());
  EXPECT_EQ(reps.route_projections, 3 * net_.routes().size());
}

TEST_F(RulesTest, SeparateLanesSeparateQueues) {
  const int lane0 = *net_.find_route(Arm::kSouth, 0, Maneuver::kStraight);
  const int lane1 = *net_.find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const sim::Route& r0 = net_.route(lane0);
  const int a = vehicle_on_route(lane0, r0.stop_line_s - 20.0, 8.0);
  const int b = vehicle_on_route(lane1, r0.stop_line_s - 20.0, 8.0);
  const auto reps = select();
  EXPECT_EQ(reps.lane_queues.size(), 2u);
  EXPECT_TRUE(reps.is_predicted(a));
  EXPECT_TRUE(reps.is_predicted(b));
}

TEST_F(RulesTest, Rule2BoundaryVehiclePredicted) {
  const int route = *net_.find_route(Arm::kSouth, 0, Maneuver::kLeft);
  const sim::Route& r = net_.route(route);
  const double mid_box = (r.box_entry_s + r.box_exit_s) / 2.0;
  const int inside = vehicle_on_route(route, mid_box, 6.0);
  const auto reps = select();
  EXPECT_TRUE(reps.is_predicted(inside));
  ASSERT_EQ(reps.boundary_vehicles.size(), 1u);
  EXPECT_EQ(reps.boundary_vehicles[0], inside);
  // Rule 2 needs no snap: prediction scans for it.
  EXPECT_TRUE(reps.route_fits.empty());
  EXPECT_EQ(reps.route_projections, 0u);
}

TEST_F(RulesTest, Rule2IgnoresStoppedVehicleInBoundary) {
  // A stationary vehicle inside the boundary (e.g. waiting to turn) has no
  // trajectory to predict.
  const int route = *net_.find_route(Arm::kNorth, 0, Maneuver::kLeft);
  const sim::Route& r = net_.route(route);
  const double mid_box = (r.box_entry_s + r.box_exit_s) / 2.0;
  add_confirmed(r.path.point_at(mid_box), {0.0, 0.0});
  const auto reps = select();
  EXPECT_TRUE(reps.boundary_vehicles.empty());
}

TEST_F(RulesTest, ExitingVehiclesNotTracked) {
  const int route = *net_.find_route(Arm::kSouth, 1, Maneuver::kStraight);
  const sim::Route& r = net_.route(route);
  const int exiting = vehicle_on_route(route, r.box_exit_s + 20.0, 8.0);
  const auto reps = select();
  EXPECT_FALSE(reps.is_predicted(exiting));
  EXPECT_TRUE(reps.lane_queues.empty());
}

TEST_F(RulesTest, Rule3PedestrianRepresentatives) {
  // Two crowds walking different directions near the south crosswalk.
  for (int i = 0; i < 5; ++i) {
    add_confirmed({-2.0 + 0.4 * i, -10.0}, {1.4, 0.0},
                  sim::AgentKind::kPedestrian);
  }
  for (int i = 0; i < 4; ++i) {
    add_confirmed({6.0 + 0.4 * i, -10.0}, {-1.3, 0.0},
                  sim::AgentKind::kPedestrian);
  }
  const auto reps = select();
  EXPECT_EQ(reps.pedestrian_representatives.size(), 2u);
  // Members map to a representative that is predicted.
  for (const auto& [member, rep] : reps.pedestrian_rep_of) {
    EXPECT_TRUE(reps.is_predicted(rep));
    EXPECT_FALSE(reps.is_predicted(member));
  }
  // 9 pedestrians, 2 representatives -> 7 mapped members.
  EXPECT_EQ(reps.pedestrian_rep_of.size(), 7u);
}

TEST_F(RulesTest, ScalabilityReduction) {
  // Paper Fig. 5: ~30 vehicles + 20 pedestrians -> ~7 vehicles + 4
  // pedestrians predicted. Build a comparable scene and require a large
  // reduction.
  int total = 0;
  for (int arm = 0; arm < 4; ++arm) {
    for (int lane = 0; lane < 2; ++lane) {
      const auto route = net_.find_route(static_cast<Arm>(arm), lane,
                                         Maneuver::kStraight);
      const sim::Route& r = net_.route(*route);
      for (int k = 0; k < 3; ++k) {
        vehicle_on_route(*route, r.stop_line_s - 15.0 - 13.0 * k, 7.0);
        ++total;
      }
    }
  }
  for (int c = 0; c < 4; ++c) {
    const double sx = (c % 2 == 0) ? -9.0 : 9.0;
    const double sy = (c < 2) ? -10.0 : 10.0;
    for (int i = 0; i < 5; ++i) {
      add_confirmed({sx + 0.3 * i, sy}, {c % 2 ? -1.3 : 1.3, 0.0},
                    sim::AgentKind::kPedestrian);
      ++total;
    }
  }
  const auto reps = select();
  // 8 lane leaders + 4 pedestrian representatives = 12 predictions for 44
  // objects: a >3x reduction.
  EXPECT_EQ(reps.lane_leaders.size(), 8u);
  EXPECT_EQ(reps.pedestrian_representatives.size(), 4u);
  EXPECT_LT(reps.predicted_tracks.size() * 3, static_cast<std::size_t>(total));
}

TEST_F(RulesTest, EmptyInput) {
  const auto reps = rules_.select({});
  EXPECT_TRUE(reps.predicted_tracks.empty());
  EXPECT_TRUE(reps.lane_queues.empty());
}

}  // namespace
}  // namespace erpd::track
