#include <gtest/gtest.h>

#include <limits>

#include "core/check.hpp"
#include "edge/vehicle_client.hpp"
#include "obs/metrics.hpp"

namespace erpd::edge {
namespace {

using sim::AgentId;
using sim::Arm;
using sim::Maneuver;

struct Rig {
  sim::World world;
  AgentId ego;
  AgentId mover;

  explicit Rig(UploadPolicy policy_unused = UploadPolicy::kOursMovingObjects)
      : world(sim::RoadNetwork{sim::RoadConfig{}}, make_world_config()) {
    (void)policy_unused;
    const int ego_route =
        *world.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
    sim::VehicleParams ep;
    ep.connected = true;
    ep.idm.desired_speed = 0.0;  // ego parked observer
    ego = world.add_vehicle(ep, ego_route, 30.0, 0.0);

    // A mover crossing ahead of the ego, well within sensor range.
    const int mover_route =
        *world.network().find_route(Arm::kSouth, 0, Maneuver::kStraight);
    sim::VehicleParams mp;
    mp.idm.desired_speed = 8.0;
    mover = world.add_vehicle(mp, mover_route, 45.0, 8.0);
  }

  static sim::WorldConfig make_world_config() {
    sim::WorldConfig wc;
    wc.lidar.channels = 16;
    wc.lidar.azimuth_step_deg = 1.0;
    wc.lidar.noise_sigma = 0.0;
    return wc;
  }
};

TEST(VehicleClient, OursUploadsOnlyMovingObjects) {
  Rig rig;
  obs::MetricsRegistry reg;
  ClientConfig cfg;
  cfg.metrics = &reg;
  VehicleClient client(rig.ego, cfg);
  ClientFrameStats stats{};
  net::UploadFrame last;
  for (int f = 0; f < 8; ++f) {
    last = client.make_upload(rig.world, nullptr, 0, &stats);
    rig.world.step();
  }
  ASSERT_FALSE(last.objects.empty()) << "moving vehicle never uploaded";
  EXPECT_TRUE(last.objects[0].object_granular);
  EXPECT_EQ(last.objects[0].truth_id, rig.mover);
  EXPECT_GT(last.objects[0].velocity_world.norm(), 4.0);
  // Upload is dramatically smaller than the raw frame.
  EXPECT_LT(last.total_bytes() * 10, stats.raw_points * pc::kRawBytesPerPoint);
  EXPECT_EQ(reg.histogram("stage.extract").count(), 8u);
  EXPECT_GT(stats.dbscan_distance_tests, 0u);
}

TEST(VehicleClient, UploadCarriesEgoPose) {
  Rig rig;
  VehicleClient client(rig.ego, {});
  const net::UploadFrame f = client.make_upload(rig.world, nullptr, 0);
  const sim::Vehicle* ego = rig.world.find_vehicle(rig.ego);
  EXPECT_NEAR(f.pose.position.x, ego->position(rig.world.network()).x, 1e-9);
  EXPECT_NEAR(f.pose.yaw, ego->heading(rig.world.network()), 1e-9);
  EXPECT_EQ(f.vehicle, rig.ego);
}

TEST(VehicleClient, EmpUploadsVoronoiCellBlob) {
  Rig rig;
  ClientConfig cfg;
  cfg.policy = UploadPolicy::kEmpVoronoi;
  VehicleClient client(rig.ego, cfg);

  // Two sites: the ego and a phantom far north. Points outside the ego's
  // cell must be cropped out.
  const geom::Vec2 ego_pos =
      rig.world.find_vehicle(rig.ego)->position(rig.world.network());
  const geom::VoronoiPartition voronoi({ego_pos, ego_pos + geom::Vec2{0, 60}});
  const net::UploadFrame f = client.make_upload(rig.world, &voronoi, 0);
  ASSERT_EQ(f.objects.size(), 1u);
  EXPECT_FALSE(f.objects[0].object_granular);
  EXPECT_GT(f.objects[0].point_count, 0u);
  for (const geom::Vec3& p : f.objects[0].cloud_world.points()) {
    EXPECT_TRUE(voronoi.in_cell(p.xy(), 0));
  }
}

TEST(VehicleClient, EmpKeepsStaticStructure) {
  // EMP does not remove static objects, so its blob is much bigger than the
  // moving-objects upload.
  Rig rig;
  ClientConfig ours_cfg;
  ClientConfig emp_cfg;
  emp_cfg.policy = UploadPolicy::kEmpVoronoi;
  VehicleClient ours(rig.ego, ours_cfg);
  VehicleClient emp(rig.ego, emp_cfg);
  const geom::Vec2 ego_pos =
      rig.world.find_vehicle(rig.ego)->position(rig.world.network());
  const geom::VoronoiPartition voronoi({ego_pos});
  net::UploadFrame f_ours;
  net::UploadFrame f_emp;
  for (int i = 0; i < 5; ++i) {
    f_ours = ours.make_upload(rig.world, nullptr, 0);
    f_emp = emp.make_upload(rig.world, &voronoi, 0);
    rig.world.step();
  }
  EXPECT_GT(f_emp.total_bytes(), f_ours.total_bytes());
}

TEST(VehicleClient, UnlimitedUploadsRawFrame) {
  Rig rig;
  ClientConfig cfg;
  cfg.policy = UploadPolicy::kUnlimitedRaw;
  VehicleClient client(rig.ego, cfg);
  ClientFrameStats stats{};
  const net::UploadFrame f = client.make_upload(rig.world, nullptr, 0, &stats);
  ASSERT_EQ(f.objects.size(), 1u);
  EXPECT_EQ(f.objects[0].point_count, stats.raw_points);
  EXPECT_EQ(f.objects[0].bytes, stats.raw_points * pc::kRawBytesPerPoint);
  // Raw uploads include the ground returns.
  EXPECT_GT(stats.raw_points, 1000u);
  // No on-vehicle clustering for raw uploads.
  EXPECT_EQ(stats.dbscan_distance_tests, 0u);
}

TEST(VehicleClient, MissingVehicleYieldsEmptyFrame) {
  Rig rig;
  VehicleClient client(9999, {});
  const net::UploadFrame f = client.make_upload(rig.world, nullptr, 0);
  EXPECT_TRUE(f.objects.empty());
}

TEST(VehicleClient, RefusesNonFinitePose) {
  // A NaN SLAM pose must die at the sender (contract check), not get shipped
  // to the edge — edge-side admission is the defense against *other* senders.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  geom::Pose pose;
  EXPECT_NO_THROW(VehicleClient::require_finite_pose(pose));
  pose.position.x = kNan;
  EXPECT_THROW(VehicleClient::require_finite_pose(pose),
               erpd::ContractViolation);
  pose = {};
  pose.yaw = std::numeric_limits<double>::infinity();
  EXPECT_THROW(VehicleClient::require_finite_pose(pose),
               erpd::ContractViolation);
  pose = {};
  pose.roll = kNan;
  EXPECT_THROW(VehicleClient::require_finite_pose(pose),
               erpd::ContractViolation);
}

}  // namespace
}  // namespace erpd::edge
