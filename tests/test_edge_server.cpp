#include <gtest/gtest.h>

#include "edge/edge_server.hpp"

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <vector>

#include "core/check.hpp"
#include "geom/angle.hpp"
#include "obs/metrics.hpp"
#include "pointcloud/ground_filter.hpp"

namespace erpd::edge {
namespace {

using geom::Vec2;
using geom::Vec3;
using sim::AgentId;
using sim::Arm;
using sim::Maneuver;

constexpr AgentId kV1 = 1;       // connected ego-like recipient
constexpr AgentId kV2 = 2;       // connected observer that sees the threat
constexpr AgentId kThreat = 77;  // ground-truth id of the threatening object

/// Test fixture that synthesizes upload frames directly (no simulator):
/// V1 drives north on the south arm; the threat drives east on the west arm
/// (their routes cross); V2 observes and uploads the threat's cloud.
class EdgeServerTest : public ::testing::Test {
 protected:
  sim::RoadNetwork net_{sim::RoadConfig{}};

  static net::ObjectUpload object_for(Vec2 pos, Vec2 vel, AgentId truth) {
    net::ObjectUpload o;
    o.object_granular = true;
    o.truth_id = truth;
    o.centroid_world = {pos, 0.8};
    o.velocity_world = vel;
    o.point_count = 120;
    o.bytes = pc::encoded_size_bytes(120);
    // A small blob of points around the centroid (footprint ~car sized).
    for (int i = 0; i < 12; ++i) {
      o.cloud_world.push_back(
          {pos.x - 2.0 + 0.4 * i, pos.y + 0.3 * (i % 3), 0.5 + 0.1 * (i % 4)});
    }
    return o;
  }

  static net::UploadFrame frame_for(AgentId vehicle, Vec2 pos, double yaw,
                                    double t) {
    net::UploadFrame f;
    f.vehicle = vehicle;
    f.pose.position = {pos, 1.9};
    f.pose.yaw = yaw;
    f.timestamp = t;
    return f;
  }

  /// Positions at time t for the converging geometry.
  Vec2 v1_pos(double t) const {
    const auto r = net_.find_route(Arm::kSouth, 1, Maneuver::kStraight);
    const sim::Route& route = net_.route(*r);
    return route.path.point_at(route.stop_line_s - 35.0 + 10.0 * t);
  }
  Vec2 threat_pos(double t) const {
    const auto r = net_.find_route(Arm::kWest, 0, Maneuver::kStraight);
    const sim::Route& route = net_.route(*r);
    return route.path.point_at(route.stop_line_s - 28.0 + 10.0 * t);
  }
  double v1_yaw() const { return geom::kPi / 2.0; }

  std::vector<net::UploadFrame> frames_at(double t) const {
    std::vector<net::UploadFrame> out;
    // V1 uploads nothing (threat occluded from it).
    out.push_back(frame_for(kV1, v1_pos(t), v1_yaw(), t));
    // V2 sits off to the side and uploads the threat.
    net::UploadFrame f2 = frame_for(kV2, {30.0, 30.0}, 0.0, t);
    f2.objects.push_back(object_for(threat_pos(t), {10.0, 0.0}, kThreat));
    out.push_back(f2);
    return out;
  }

  /// The fixture's scene, but V2 uploads an unsegmented blob of the
  /// threat's points, as an EMP client does.
  std::vector<net::UploadFrame> blob_frames_at(double t) const {
    std::vector<net::UploadFrame> out;
    out.push_back(frame_for(kV1, v1_pos(t), v1_yaw(), t));
    net::UploadFrame f2 = frame_for(kV2, {30.0, 30.0}, 0.0, t);
    net::ObjectUpload blob;
    blob.object_granular = false;
    const Vec2 tp = threat_pos(t);
    for (int i = 0; i < 80; ++i) {
      blob.cloud_world.push_back({tp.x - 2.0 + 0.05 * i,
                                  tp.y - 0.8 + 0.02 * i,
                                  0.5 + 0.01 * (i % 30)});
    }
    blob.point_count = blob.cloud_world.size();
    blob.bytes = pc::encoded_size_bytes(blob.point_count);
    blob.centroid_world = blob.cloud_world.centroid();
    f2.objects.push_back(std::move(blob));
    out.push_back(f2);
    return out;
  }
};

TEST_F(EdgeServerTest, DisseminatesRelevantObjectToEndangeredVehicle) {
  EdgeServer server(net_, EdgeConfig{});
  FrameOutput out;
  for (int k = 0; k < 6; ++k) {
    out = server.process_frame(frames_at(0.1 * k), 0.1 * k, nullptr);
  }
  ASSERT_FALSE(out.selected.empty())
      << "no dissemination despite a converging threat";
  bool to_v1 = false;
  double selected_relevance = 0.0;
  for (const net::Dissemination& d : out.selected) {
    if (d.to == kV1 && d.about == kThreat) to_v1 = true;
    EXPECT_GT(d.relevance, 0.0);
    EXPECT_GT(d.bytes, 0u);
    selected_relevance += d.relevance;
  }
  EXPECT_TRUE(to_v1);
  EXPECT_GT(selected_relevance, 0.0);
}

TEST_F(EdgeServerTest, UploaderNeverReceivesWhatItSees) {
  EdgeServer server(net_, EdgeConfig{});
  FrameOutput out;
  for (int k = 0; k < 6; ++k) {
    out = server.process_frame(frames_at(0.1 * k), 0.1 * k, nullptr);
  }
  for (const net::Dissemination& d : out.selected) {
    EXPECT_FALSE(d.to == kV2 && d.about == kThreat)
        << "V2 uploaded the threat; it already sees it (relevance 0)";
  }
}

TEST_F(EdgeServerTest, TracksConfirmAndCount) {
  EdgeServer server(net_, EdgeConfig{});
  FrameOutput out;
  for (int k = 0; k < 4; ++k) {
    out = server.process_frame(frames_at(0.1 * k), 0.1 * k, nullptr);
  }
  EXPECT_EQ(out.detections, 1u);
  EXPECT_EQ(out.confirmed_tracks, 1u);
  EXPECT_GE(out.predicted_tracks, 1u);
  // Object-granular uploads skip the edge's re-segmentation.
  EXPECT_EQ(out.dbscan_distance_tests, 0u);
}

TEST_F(EdgeServerTest, MapMatchingRunsOnlyWhereRelevanceReadsIt) {
  // Rules 1-3 and prediction feed relevance-greedy scoring alone: round
  // robin and broadcast predict nothing and snap nothing to the map.
  for (const Method method : {Method::kOurs, Method::kEmp, Method::kUnlimited}) {
    EdgeConfig cfg;
    cfg.method = method;
    EdgeServer server(net_, cfg);
    FrameOutput out;
    for (int k = 0; k < 4; ++k) {
      out = server.process_frame(frames_at(0.1 * k), 0.1 * k, nullptr);
    }
    const bool greedy = method == Method::kOurs;
    EXPECT_EQ(out.predicted_tracks > 0, greedy);
    EXPECT_EQ(out.route_projections > 0, greedy);
    // Whole scans only: one projection per route.
    EXPECT_EQ(out.route_projections % net_.routes().size(), 0u);
  }
}

// The runner builds its edge under every method, Single included, but a
// Single run never hands it a frame.
TEST_F(EdgeServerTest, SingleConstructsButRefusesFrames) {
  EdgeConfig cfg;
  cfg.method = Method::kSingle;
  EdgeServer server(net_, cfg);
  EXPECT_THROW(server.process_frame(frames_at(0.0), 0.0, nullptr),
               erpd::ContractViolation);
}

// alpha in [0, 1]: 0 turns follower relevance off, 1 passes the leader's
// value on undecayed.
TEST_F(EdgeServerTest, RejectsFollowerAlphaOutsideTheUnitInterval) {
  for (const double alpha : {-0.1, 1.1}) {
    EdgeConfig cfg;
    cfg.follower.alpha = alpha;
    EXPECT_THROW(EdgeServer(net_, cfg), erpd::ContractViolation) << alpha;
  }
}

TEST_F(EdgeServerTest, OneFrameTimesEachEdgeStageOnce) {
  EdgeServer server(net_, EdgeConfig{});
  obs::MetricsRegistry reg;
  server.attach_metrics(&reg);
  server.process_frame(frames_at(0.0), 0.0, nullptr);
  for (const char* stage : {"stage.merge", "stage.track", "stage.relevance",
                            "stage.disseminate"}) {
    EXPECT_EQ(reg.histogram(stage).count(), 1u) << stage;
  }
}

TEST_F(EdgeServerTest, RoundRobinSendsIrrespectiveOfRelevance) {
  EdgeConfig cfg;
  cfg.method = Method::kEmp;
  EdgeServer server(net_, cfg);
  FrameOutput out;
  for (int k = 0; k < 6; ++k) {
    out = server.process_frame(frames_at(0.1 * k), 0.1 * k, nullptr);
  }
  // RR sends the track to every other vehicle, including V2 (which sees it).
  bool to_v2 = false;
  for (const net::Dissemination& d : out.selected) {
    if (d.to == kV2) to_v2 = true;
  }
  EXPECT_TRUE(to_v2);
}

TEST_F(EdgeServerTest, BroadcastSendsToAllVehicles) {
  EdgeConfig cfg;
  cfg.method = Method::kUnlimited;
  EdgeServer server(net_, cfg);
  FrameOutput out;
  for (int k = 0; k < 4; ++k) {
    out = server.process_frame(frames_at(0.1 * k), 0.1 * k, nullptr);
  }
  // One confirmed track x two connected vehicles.
  EXPECT_EQ(out.selected.size(), 2u);
}

TEST_F(EdgeServerTest, MinRelevanceFiltersWeakCandidates) {
  // The threat is relevant while V2 reports it; then V2's uploads stop
  // carrying it and its track coasts. A staleness decay close to 1 pushes
  // the coasting relevance below kMinRelevance, so it is never a
  // candidate; without the decay the same coasting track is.
  const auto coasting_frame = [&](double staleness_decay) {
    EdgeConfig cfg;
    cfg.staleness_decay = staleness_decay;
    EdgeServer server(net_, cfg);
    FrameOutput out;
    for (int k = 0; k < 6; ++k) {
      out = server.process_frame(frames_at(0.1 * k), 0.1 * k, nullptr);
    }
    EXPECT_FALSE(out.selected.empty()) << "the reported threat is relevant";
    std::vector<net::UploadFrame> blind = frames_at(0.6);
    blind[1].objects.clear();
    return server.process_frame(std::move(blind), 0.6, nullptr);
  };
  const FrameOutput fresh = coasting_frame(0.0);
  EXPECT_EQ(fresh.coasting_tracks, 1u);
  EXPECT_EQ(fresh.stale_candidates, 1u);
  EXPECT_FALSE(fresh.selected.empty());

  const FrameOutput decayed = coasting_frame(0.9999);
  EXPECT_EQ(decayed.coasting_tracks, 1u);
  EXPECT_EQ(decayed.stale_candidates, 0u);
  EXPECT_EQ(decayed.candidates, 0u);
  EXPECT_TRUE(decayed.selected.empty());
}

TEST_F(EdgeServerTest, BlobUploadsAreDetectedServerSide) {
  EdgeConfig cfg;
  cfg.method = Method::kEmp;
  EdgeServer server(net_, cfg);
  std::vector<sim::AgentSnapshot> truth(1);
  truth[0].id = kThreat;
  FrameOutput out;
  for (int k = 0; k < 6; ++k) {
    truth[0].position = threat_pos(0.1 * k);
    out = server.process_frame(blob_frames_at(0.1 * k), 0.1 * k, &truth);
  }
  EXPECT_EQ(out.detections, 1u);
  EXPECT_EQ(out.confirmed_tracks, 1u);
  // The blob went through the edge's DBSCAN, and its work is reported.
  EXPECT_GT(out.dbscan_distance_tests, 0u);
  // Truth tagging flowed through to the track.
  bool tagged = false;
  for (const auto& tr : server.tracker().tracks()) {
    if (tr.truth_id == kThreat) tagged = true;
  }
  EXPECT_TRUE(tagged);
}

// Only object-granular uploads reach Ours: relevance reads objects, and an
// Ours client never uploads a blob.
TEST_F(EdgeServerTest, OursRefusesBlobUploads) {
  EdgeServer server(net_, EdgeConfig{});
  EXPECT_THROW(server.process_frame(blob_frames_at(0.0), 0.0, nullptr),
               erpd::ContractViolation);
}

// The vehicle drops ground in the sensor frame (pc::ground_cutoff of the
// default extractor config); the edge strips raw blobs in the world frame.
// At the simulated mount height the two are one plane.
TEST(BlobGroundStrip, IsTheVehicleCutoffInTheWorldFrame) {
  EXPECT_NEAR(sim::kSensorHeight + pc::ground_cutoff(pc::GroundFilterConfig{}),
              kBlobGroundStrip, 1e-9);
}

TEST_F(EdgeServerTest, DuplicateUploadsFuseIntoOneTrack) {
  // Two vehicles report the same object from different viewpoints with a
  // ~1.5 m centroid disagreement; the server must fuse them (Point Cloud
  // Merging) instead of breeding duplicate tracks.
  EdgeServer server(net_, EdgeConfig{});
  FrameOutput out;
  for (int k = 0; k < 4; ++k) {
    const double t = 0.1 * k;
    std::vector<net::UploadFrame> frames;
    net::UploadFrame f2 = frame_for(kV2, {30.0, 30.0}, 0.0, t);
    f2.objects.push_back(object_for(threat_pos(t), {10.0, 0.0}, kThreat));
    frames.push_back(f2);
    net::UploadFrame f1 = frame_for(kV1, v1_pos(t), v1_yaw(), t);
    f1.objects.push_back(object_for(threat_pos(t) + Vec2{1.2, 0.6},
                                    {10.0, 0.0}, kThreat));
    frames.push_back(f1);
    out = server.process_frame(frames, t, nullptr);
  }
  EXPECT_EQ(out.detections, 1u) << "duplicate views must fuse";
  EXPECT_EQ(out.confirmed_tracks, 1u);
}

TEST_F(EdgeServerTest, MovingTracksExcludeStationary) {
  EdgeServer server(net_, EdgeConfig{});
  FrameOutput out;
  for (int k = 0; k < 4; ++k) {
    const double t = 0.1 * k;
    std::vector<net::UploadFrame> frames;
    net::UploadFrame f2 = frame_for(kV2, {30.0, 30.0}, 0.0, t);
    f2.objects.push_back(object_for(threat_pos(t), {10.0, 0.0}, kThreat));
    // A parked object (zero velocity, fixed position).
    f2.objects.push_back(object_for({40.0, 40.0}, {0.0, 0.0}, 99));
    frames.push_back(f2);
    out = server.process_frame(frames, t, nullptr);
  }
  EXPECT_EQ(out.confirmed_tracks, 2u);
  EXPECT_EQ(out.moving_tracks, 1u);
}

// Under service mode a vehicle can arrive twice in one frame: a carried
// frame with last frame's deferred objects, then its fresh skeleton. The
// visibility rule reads the last one, what the vehicle sees now.
TEST_F(EdgeServerTest, VisibilityReadsTheFreshFrameOverACarriedOne) {
  EdgeConfig cfg;
  cfg.service.enabled = true;
  // 30 us: the threat (120 points, 14800 ns) fits with an extra 100-point
  // object (13000 ns) but not with V1's 50-point sighting (8500 ns) too.
  cfg.service.decode_merge_budget_us = 30;
  EdgeServer server(net_, cfg);
  // V1 waits on the threat's lane, 20 m ahead of where it is at frame 5.
  const auto r = net_.find_route(Arm::kWest, 0, Maneuver::kStraight);
  const sim::Route& lane = net_.route(*r);
  const Vec2 v1_at = lane.path.point_at(lane.stop_line_s - 28.0 + 5.0 + 20.0);
  FrameOutput out;
  for (int k = 0; k <= 5; ++k) {
    const double t = 0.1 * k;
    std::vector<net::UploadFrame> frames;
    net::UploadFrame f1 = frame_for(kV1, v1_at, 0.0, t);
    net::UploadFrame f2 = frame_for(kV2, {30.0, 30.0}, 0.0, t);
    f2.objects.push_back(object_for(threat_pos(t), {10.0, 0.0}, kThreat));
    if (k == 4) {
      // V1 sights the threat; its object is deferred to frame 5 behind
      // V2's two bigger ones.
      net::ObjectUpload sighting =
          object_for(threat_pos(t), {10.0, 0.0}, kThreat);
      sighting.point_count = 50;
      f1.objects.push_back(sighting);
      net::ObjectUpload extra = object_for({-60.0, 60.0}, {0.0, 0.0}, 99);
      extra.point_count = 100;
      f2.objects.push_back(extra);
    }
    frames.push_back(f1);
    frames.push_back(f2);
    out = server.process_frame(frames, t, nullptr);
    if (k == 4) {
      ASSERT_EQ(out.service.deferred_objects, 1u);
    }
  }
  // Frame 5 admitted V1's carried frame (holding the sighting, within
  // kVisibilityRadius of the track) and then V1's fresh, empty frame.
  ASSERT_EQ(out.service.carried_objects, 1u);
  ASSERT_EQ(out.service.admitted_objects, 2u);
  bool to_v1 = false;
  for (const net::Dissemination& d : out.selected) {
    if (d.to == kV1 && d.about == kThreat) to_v1 = true;
  }
  EXPECT_TRUE(to_v1) << "the stale sighting must not mark the threat visible";
}

TEST_F(EdgeServerTest, StaleVehiclesForgotten) {
  EdgeServer server(net_, EdgeConfig{});
  for (int k = 0; k < 3; ++k) {
    server.process_frame(frames_at(0.1 * k), 0.1 * k, nullptr);
  }
  // V1 stops uploading; after >1 s only V2 remains in the fleet, so no
  // dissemination to V1 can be selected.
  FrameOutput out;
  for (int k = 3; k < 20; ++k) {
    std::vector<net::UploadFrame> only_v2;
    net::UploadFrame f2 = frame_for(kV2, {30.0, 30.0}, 0.0, 0.1 * k);
    f2.objects.push_back(
        object_for(threat_pos(0.1 * k), {10.0, 0.0}, kThreat));
    only_v2.push_back(f2);
    out = server.process_frame(only_v2, 0.1 * k, nullptr);
  }
  for (const net::Dissemination& d : out.selected) {
    EXPECT_NE(d.to, kV1);
  }
}

// ---- The relevance stage without a closed loop ----------------------------
// score_relevance over hand-built frames: tracks from one tracker step,
// straight-line hypotheses, no road network and no uploads unless a case
// adds its own frames.

using Source = RelevanceEntry::Source;

/// A straight-line hypothesis from `from` at `velocity`, clipped to reach.
core::ClippedTrajectory straight(Vec2 from, Vec2 velocity) {
  const double speed = velocity.norm();
  const Vec2 dir = speed > 0.0 ? velocity / speed : Vec2{1.0, 0.0};
  track::PredictedTrajectory p;
  p.path = geom::Polyline({from, from + dir * 80.0});
  p.speed = speed;
  return core::clip_to_reach(std::move(p));
}

struct RelevanceScene {
  std::vector<track::Detection> detections;
  track::MultiObjectTracker tracker;
  track::RepresentativeSet reps;
  std::map<int, Hypotheses> objects;
  std::map<AgentId, Recipient> fleet;
  core::FollowerRelevanceConfig follower;
  double staleness_decay{0.0};
  core::RelevanceTally tally;
  /// The last score()'s calls of the leader source, by leader track id.
  std::map<int, int> leader_predictions;

  /// Track ids follow detection order from 0.
  int add_track(Vec2 pos, Vec2 vel,
                sim::AgentKind kind = sim::AgentKind::kCar) {
    track::Detection d;
    d.position = pos;
    d.velocity = vel;
    d.kind = kind;
    d.payload_bytes = 100 + detections.size();
    detections.push_back(d);
    return static_cast<int>(detections.size()) - 1;
  }
  void commit() { tracker.step(detections, 0.0); }
  /// Predicts `id` with one straight hypothesis along its velocity.
  void predict(int id) {
    const track::Track& tr = *tracker.find(id);
    reps.predicted_tracks.push_back(id);
    objects[id] = {straight(tr.position(), tr.velocity())};
  }
  void connect(AgentId vid, Vec2 pos, Vec2 vel) {
    fleet[vid] = {.position = pos, .hypotheses = {straight(pos, vel)}};
  }

  RelevanceTable score() {
    leader_predictions.clear();
    const std::function<Hypotheses(const track::Track&)> predict_leader =
        [this](const track::Track& tr) -> Hypotheses {
      ++leader_predictions[tr.id];
      return {straight(tr.position(), tr.velocity())};
    };
    return score_relevance({.fleet = fleet,
                            .tracker = tracker,
                            .reps = reps,
                            .objects = objects,
                            .predict_leader = predict_leader,
                            .follower = follower,
                            .staleness_decay = staleness_decay},
                           tally);
  }
  /// The direct value of a predicted object for a fleet vehicle.
  double direct(int id, AgentId vid) {
    const auto est = core::best_collision(
        objects.at(id), fleet.at(vid).hypotheses,
        sim::default_dims(tracker.find(id)->kind).length,
        sim::default_dims(sim::AgentKind::kCar).length, tally);
    return est ? est->relevance : 0.0;
  }
};

constexpr AgentId kLeader = 10;
constexpr AgentId kFollower = 11;

/// Object O drives east into the crossing at the origin. The connected lane
/// leader drives north and reaches it together with O; its connected
/// follower, 6 m behind, arrives later, so O matters less to it directly.
/// The lane queue's arc lengths put the follower `arc_gap` behind.
RelevanceScene lane_scene(double arc_gap) {
  RelevanceScene s;
  const int obj = s.add_track({-20.0, 0.0}, {10.0, 0.0});
  const int lead = s.add_track({0.0, -20.0}, {0.0, 10.0});
  const int foll = s.add_track({0.0, -26.0}, {0.0, 10.0});
  s.commit();
  s.predict(obj);
  s.connect(kLeader, {0.0, -20.0}, {0.0, 10.0});
  s.connect(kFollower, {0.0, -26.0}, {0.0, 10.0});
  s.reps.lane_queues.push_back(
      {.track_ids = {lead, foll}, .arc_lengths = {60.0, 60.0 - arc_gap}});
  return s;
}

// ROADMAP item 8, bug 1, pinned as the stage behaves today: the follower
// raise writes the pair a second time, so it is emitted twice. The fix
// emits one candidate per pair and turns this case's counts to 2 and 0.
TEST(RelevanceStage, FollowerRaiseEmitsTheDirectPairAgain) {
  RelevanceScene s = lane_scene(6.0);
  const double r_leader = s.direct(0, kLeader);
  const double r_direct = s.direct(0, kFollower);
  const double alpha = s.follower.alpha;
  ASSERT_GE(r_direct, kMinRelevance);
  ASSERT_LT(r_direct, alpha * r_leader);

  const RelevanceTable table = s.score();
  ASSERT_EQ(table.candidates.size(), 3u);
  EXPECT_EQ(table.entries.size(), 2u);
  EXPECT_EQ(table.duplicates, 1u);
  const core::Candidate& first = table.candidates[1];
  const core::Candidate& again = table.candidates[2];
  EXPECT_EQ(first.track_id, 0);
  EXPECT_EQ(first.to, kFollower);
  EXPECT_EQ(first.relevance, r_direct);
  EXPECT_EQ(again.track_id, 0);
  EXPECT_EQ(again.to, kFollower);

  const RelevanceEntry* e = table.find(0, kFollower);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, alpha * r_leader);
  EXPECT_EQ(e->source, Source::kFollower);
  EXPECT_EQ(e->via, 1);
  EXPECT_EQ(e->alpha, alpha);
  EXPECT_EQ(again.relevance, e->value);
  EXPECT_EQ(table.find(0, kLeader)->source, Source::kDirect);
}

TEST(RelevanceStage, SafeFollowerInheritsNothing) {
  // 40 m behind at 10 m/s satisfies Pipes and Gipps.
  RelevanceScene s = lane_scene(40.0);
  const RelevanceTable table = s.score();
  EXPECT_EQ(table.duplicates, 0u);
  for (const auto& [key, e] : table.entries) {
    EXPECT_EQ(e.source, Source::kDirect) << key.first << "->" << key.second;
  }
  EXPECT_EQ(table.find(0, kFollower)->value, s.direct(0, kFollower));
}

TEST(RelevanceStage, AlphaZeroTurnsFollowersOff) {
  RelevanceScene s = lane_scene(6.0);
  s.follower.alpha = 0.0;
  const RelevanceTable table = s.score();
  EXPECT_EQ(table.candidates.size(), 2u);
  EXPECT_EQ(table.duplicates, 0u);
  EXPECT_EQ(table.find(0, kFollower)->source, Source::kDirect);
}

TEST(RelevanceStage, CrowdMemberTakesItsRepresentativesValue) {
  RelevanceScene s;
  // A crowd walks east across x = 0, its representative in front.
  const int rep = s.add_track({-3.0, 0.0}, {1.5, 0.0},
                              sim::AgentKind::kPedestrian);
  const int member = s.add_track({-6.0, 1.0}, {1.5, 0.0},
                                 sim::AgentKind::kPedestrian);
  s.commit();
  s.predict(rep);
  s.reps.pedestrian_rep_of[member] = rep;
  // Reaches the crowd's path 2 s out.
  s.connect(kLeader, {0.0, -20.0}, {0.0, 10.0});
  // Crosses the representative's path too, but stands on the member, so it
  // is that member: it inherits nothing about itself.
  s.connect(kFollower, {-6.5, 1.0}, {5.0, -1.0});

  const RelevanceTable table = s.score();
  const RelevanceEntry* r = table.find(rep, kLeader);
  const RelevanceEntry* m = table.find(member, kLeader);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, r->value);
  EXPECT_EQ(m->source, Source::kCrowdMember);
  EXPECT_EQ(m->via, rep);
  ASSERT_NE(table.find(rep, kFollower), nullptr);
  EXPECT_EQ(table.find(member, kFollower), nullptr);
  EXPECT_EQ(table.duplicates, 0u);
}

TEST(RelevanceStage, StalenessDecayScalesACoastingTrack) {
  RelevanceScene s;
  const int obj = s.add_track({-20.0, 0.0}, {10.0, 0.0});
  s.commit();
  s.predict(obj);
  s.connect(kLeader, {0.0, -20.0}, {0.0, 10.0});
  // One frame without a detection: the track coasts.
  s.tracker.step({}, 0.1);
  ASSERT_EQ(s.tracker.find(obj)->misses, 1);

  const RelevanceTable fresh = s.score();
  s.staleness_decay = 0.25;
  const RelevanceTable decayed = s.score();
  ASSERT_NE(fresh.find(obj, kLeader), nullptr);
  ASSERT_NE(decayed.find(obj, kLeader), nullptr);
  EXPECT_EQ(decayed.find(obj, kLeader)->value,
            fresh.find(obj, kLeader)->value * 0.75);
  EXPECT_EQ(fresh.stale, 1u);
  EXPECT_EQ(decayed.stale, 1u);
}

// Seeded synthetic fleets: random tracks, predictions, crowds, lane queues,
// connected vehicles (some standing on tracks) and own frames. Whatever the
// stage writes, the table and the candidate stream agree.
TEST(RelevanceStage, TableAndCandidateStreamAgreeOnSeededFleets) {
  std::size_t duplicates = 0;
  std::size_t by_source[3] = {0, 0, 0};
  std::size_t leaders_predicted = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937_64 rng(0x5e1e'0000 + seed);
    const auto uni = [&](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const auto pick = [&](int n) {
      return std::uniform_int_distribution<int>(0, n - 1)(rng);
    };
    const auto heading = [&](double speed) {
      const double a = uni(0.0, 2.0 * geom::kPi);
      return Vec2{std::cos(a), std::sin(a)} * speed;
    };

    RelevanceScene s;
    const int n_tracks = 2 + pick(8);
    for (int i = 0; i < n_tracks; ++i) {
      s.add_track({uni(-20.0, 20.0), uni(-20.0, 20.0)}, heading(uni(0.0, 12.0)),
                  pick(3) == 0 ? sim::AgentKind::kPedestrian
                               : sim::AgentKind::kCar);
    }
    s.commit();
    if (pick(4) == 0) s.tracker.step({}, 0.1);  // every track coasts
    s.staleness_decay = pick(2) == 0 ? 0.0 : uni(0.0, 0.9);
    s.follower.alpha = uni(0.0, 1.0);
    s.follower.criterion = pick(2) == 0
                               ? core::FollowerCriterion::kViolatesAny
                               : core::FollowerCriterion::kViolatesBoth;

    std::vector<int> predicted;
    for (int id = 0; id < n_tracks; ++id) {
      if (pick(2) == 0) continue;
      s.predict(id);
      predicted.push_back(id);
    }
    for (int id = 0; id < n_tracks && !predicted.empty(); ++id) {
      if (!s.objects.contains(id) && pick(2) == 0) {
        s.reps.pedestrian_rep_of[id] = predicted[pick(predicted.size())];
      }
    }
    // Half the tracks are connected vehicles, plus up to two that no track
    // stands for.
    for (int id = 0; id < n_tracks; ++id) {
      if (pick(2) == 0) continue;
      const track::Track& tr = *s.tracker.find(id);
      s.connect(20 + id, tr.position(), tr.velocity());
    }
    for (int v = pick(3); v > 0; --v) {
      s.connect(40 + v, {uni(-20.0, 20.0), uni(-20.0, 20.0)},
                heading(uni(0.0, 12.0)));
    }
    const int n_queues = pick(4);
    for (int q = 0; q < n_queues; ++q) {
      track::LaneQueue lane;
      double arc = 80.0;
      for (int k = 1 + pick(4); k > 0; --k) {
        lane.track_ids.push_back(pick(n_tracks));
        lane.arc_lengths.push_back(arc);
        arc -= uni(2.0, 20.0);
      }
      s.reps.lane_queues.push_back(std::move(lane));
    }
    // Own frames: a vehicle may upload objects near some tracks.
    std::vector<net::UploadFrame> frames;
    frames.reserve(s.fleet.size());
    for (auto& [vid, r] : s.fleet) {
      if (pick(2) == 0) continue;
      net::UploadFrame& f = frames.emplace_back();
      f.vehicle = vid;
      for (int k = pick(3); k > 0; --k) {
        net::ObjectUpload o;
        o.object_granular = true;
        o.centroid_world = {s.tracker.find(pick(n_tracks))->position() +
                                Vec2{uni(-3.0, 3.0), uni(-3.0, 3.0)},
                            0.8};
        f.objects.push_back(std::move(o));
      }
      r.own_frame = &f;
    }

    const RelevanceTable table = s.score();
    leaders_predicted += s.leader_predictions.size();
    for (const auto& [id, calls] : s.leader_predictions) {
      EXPECT_EQ(calls, 1) << "seed " << seed << " leader " << id;
      EXPECT_FALSE(s.objects.contains(id)) << "seed " << seed;
    }
    std::map<RelevanceTable::Key, double> last;
    for (const core::Candidate& c : table.candidates) {
      ASSERT_NE(table.find(c.track_id, c.to), nullptr) << "seed " << seed;
      last[{c.track_id, c.to}] = c.relevance;
    }
    ASSERT_EQ(last.size(), table.entries.size()) << "seed " << seed;
    for (const auto& [key, value] : last) {
      EXPECT_EQ(table.entries.at(key).value, value) << "seed " << seed;
    }
    EXPECT_EQ(table.candidates.size() - last.size(), table.duplicates)
        << "seed " << seed;
    duplicates += table.duplicates;
    for (const auto& [key, e] : table.entries) {
      ++by_source[static_cast<int>(e.source)];
    }
  }
  // The fleets reach every source, the duplicate path and the leader source.
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(leaders_predicted, 0u);
  EXPECT_GT(by_source[static_cast<int>(Source::kDirect)], 0u);
  EXPECT_GT(by_source[static_cast<int>(Source::kCrowdMember)], 0u);
  EXPECT_GT(by_source[static_cast<int>(Source::kFollower)], 0u);
}

}  // namespace
}  // namespace erpd::edge
