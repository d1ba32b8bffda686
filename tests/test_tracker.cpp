#include <gtest/gtest.h>

#include <cmath>

#include "track/tracker.hpp"

namespace erpd::track {
namespace {

using geom::Vec2;

Detection det(Vec2 pos, sim::AgentKind kind = sim::AgentKind::kCar,
              std::optional<Vec2> vel = std::nullopt) {
  Detection d;
  d.position = pos;
  d.velocity = vel;
  d.kind = kind;
  d.payload_bytes = 1000;
  d.point_count = 100;
  return d;
}

TEST(Tracker, NewDetectionStartsTrack) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  ASSERT_EQ(mot.tracks().size(), 1u);
  EXPECT_EQ(mot.tracks()[0].hits, 1);
  EXPECT_TRUE(mot.confirmed().empty());  // needs confirm_hits updates
}

TEST(Tracker, TrackConfirmsAfterHits) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({det({5.5, 5.0})}, 0.1);
  EXPECT_EQ(mot.confirmed().size(), 1u);
}

TEST(Tracker, AssociationWithinGate) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({det({6.0, 5.0})}, 0.1);  // 1 m jump, inside the 3.5 m gate
  EXPECT_EQ(mot.tracks().size(), 1u);
  EXPECT_EQ(mot.tracks()[0].hits, 2);
}

TEST(Tracker, FarDetectionStartsNewTrack) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({det({25.0, 5.0})}, 0.1);  // far outside the gate
  EXPECT_EQ(mot.tracks().size(), 2u);
}

TEST(Tracker, UnambiguousKindMismatchBlocksAssociation) {
  // A track confirmed as car-sized never absorbs a clearly pedestrian-sized
  // detection (and vice versa) — but kind is advisory for partial views.
  MultiObjectTracker mot;
  Detection car = det({5.0, 5.0}, sim::AgentKind::kCar);
  car.extent = 4.2;
  mot.step({car}, 0.0);
  Detection ped = det({5.2, 5.0}, sim::AgentKind::kPedestrian);
  ped.extent = 0.5;
  mot.step({ped}, 0.1);
  EXPECT_EQ(mot.tracks().size(), 2u);
}

TEST(Tracker, PartialViewStillAssociates) {
  // A far, partially occluded car looks pedestrian-sized; it must still
  // associate with its track rather than spawning a duplicate.
  MultiObjectTracker mot;
  Detection full = det({5.0, 5.0}, sim::AgentKind::kCar);
  full.extent = 4.2;
  mot.step({full}, 0.0);
  Detection partial = det({5.4, 5.0}, sim::AgentKind::kPedestrian);
  partial.extent = 0.0;  // unknown extent
  mot.step({partial}, 0.1);
  EXPECT_EQ(mot.tracks().size(), 1u);
}

TEST(Tracker, KindUpgradesWithExtent) {
  MultiObjectTracker mot;
  Detection d = det({5.0, 5.0}, sim::AgentKind::kPedestrian);
  d.extent = 0.9;
  mot.step({d}, 0.0);
  EXPECT_EQ(mot.tracks()[0].kind, sim::AgentKind::kPedestrian);
  d.position = {5.3, 5.0};
  d.extent = 3.8;  // clearly a car after all
  mot.step({d}, 0.1);
  EXPECT_EQ(mot.tracks()[0].kind, sim::AgentKind::kCar);
}

TEST(Tracker, MissedTracksEventuallyDropped) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  double t = 0.0;
  for (int miss = 0; miss < kMaxMisses; ++miss) {
    t += 0.1;
    mot.step({}, t);
  }
  EXPECT_EQ(mot.tracks().size(), 1u);
  mot.step({}, t + 0.1);  // one miss past the limit
  EXPECT_TRUE(mot.tracks().empty());
}

TEST(Tracker, ReacquireResetsMisses) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({}, 0.1);
  mot.step({det({5.1, 5.0})}, 0.2);
  EXPECT_EQ(mot.tracks()[0].misses, 0);
}

TEST(Tracker, GreedyPicksGloballyNearestPairs) {
  MultiObjectTracker mot;
  mot.step({det({0.0, 0.0}), det({3.0, 0.0})}, 0.0);
  // Next frame both moved right; naive row-order matching would cross them.
  mot.step({det({1.0, 0.0}), det({4.0, 0.0})}, 0.1);
  ASSERT_EQ(mot.tracks().size(), 2u);
  EXPECT_LT(distance(mot.tracks()[0].position(), Vec2(1.0, 0.0)), 1.0);
  EXPECT_LT(distance(mot.tracks()[1].position(), Vec2(4.0, 0.0)), 1.0);
}

TEST(Tracker, CoastingPredictsForward) {
  MultiObjectTracker mot;
  mot.step({det({0.0, 0.0}, sim::AgentKind::kCar, Vec2{10.0, 0.0})}, 0.0);
  mot.step({det({1.0, 0.0}, sim::AgentKind::kCar, Vec2{10.0, 0.0})}, 0.1);
  // Missed frame: the track should coast along its velocity.
  mot.step({}, 0.2);
  ASSERT_EQ(mot.tracks().size(), 1u);
  EXPECT_GT(mot.tracks()[0].position().x, 1.5);
}

TEST(Tracker, PayloadMetadataFollowsLatestDetection) {
  MultiObjectTracker mot;
  Detection d = det({5.0, 5.0});
  d.payload_bytes = 777;
  d.truth_id = 42;
  mot.step({d}, 0.0);
  EXPECT_EQ(mot.tracks()[0].payload_bytes, 777u);
  EXPECT_EQ(mot.tracks()[0].truth_id, 42);
  d.position = {5.3, 5.0};
  d.payload_bytes = 999;
  mot.step({d}, 0.1);
  EXPECT_EQ(mot.tracks()[0].payload_bytes, 999u);
}

TEST(Tracker, FindById) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0}), det({50.0, 5.0})}, 0.0);
  const int id = mot.tracks()[1].id;
  ASSERT_NE(mot.find(id), nullptr);
  EXPECT_EQ(mot.find(id)->id, id);
  EXPECT_EQ(mot.find(12345), nullptr);
}

TEST(Tracker, ManyObjectsStableIdentity) {
  MultiObjectTracker mot;
  std::vector<Detection> frame;
  for (int i = 0; i < 10; ++i) frame.push_back(det({i * 10.0, 0.0}));
  mot.step(frame, 0.0);
  const auto ids_before = [&] {
    std::vector<int> v;
    for (const auto& t : mot.tracks()) v.push_back(t.id);
    return v;
  }();
  // All objects drift slightly; identities must persist.
  for (auto& d : frame) d.position += Vec2{0.4, 0.1};
  mot.step(frame, 0.1);
  const auto ids_after = [&] {
    std::vector<int> v;
    for (const auto& t : mot.tracks()) v.push_back(t.id);
    return v;
  }();
  EXPECT_EQ(ids_before, ids_after);
}

}  // namespace
}  // namespace erpd::track
