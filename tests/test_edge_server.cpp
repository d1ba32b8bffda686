#include <gtest/gtest.h>

#include "edge/edge_server.hpp"

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
  EdgeServer server(net_, EdgeConfig{});
  // Same scene, but V2 uploads an unsegmented blob of the threat's points.
  auto frames = [&](double t) {
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
  };
  std::vector<sim::AgentSnapshot> truth(1);
  truth[0].id = kThreat;
  FrameOutput out;
  for (int k = 0; k < 6; ++k) {
    truth[0].position = threat_pos(0.1 * k);
    out = server.process_frame(frames(0.1 * k), 0.1 * k, &truth);
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

}  // namespace
}  // namespace erpd::edge
