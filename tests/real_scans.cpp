#include "real_scans.hpp"

#include "geom/mat4.hpp"
#include "pointcloud/ground_filter.hpp"
#include "pointcloud/moving_extractor.hpp"

namespace erpd::pc {

sim::ScenarioConfig real_scan_scene(int channels, double azimuth_step_deg) {
  sim::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.speed_kmh = 30.0;
  cfg.total_vehicles = 16;
  cfg.pedestrians = 4;
  cfg.connected_fraction = 0.5;
  cfg.world.lidar.channels = channels;
  cfg.world.lidar.azimuth_step_deg = azimuth_step_deg;
  cfg.world.lidar.noise_sigma = 0.02;
  return cfg;
}

std::vector<PointCloud> real_clouds(const sim::ScenarioConfig& cfg,
                                    bool merge) {
  sim::Scenario sc = sim::make_unprotected_left_turn(cfg);
  sim::World& world = sc.world;
  const GroundFilterConfig ground = MovingExtractorConfig{}.ground;
  std::vector<PointCloud> out;
  for (int round = 0; round < 3; ++round) {
    for (int t = 0; t < 15; ++t) world.step();
    PointCloud merged;
    int taken = 0;
    for (const sim::Vehicle& v : world.vehicles()) {
      if (!v.params().connected || v.params().parked ||
          v.finished(world.network()) || v.crashed() || taken == 4) {
        continue;
      }
      ++taken;
      const PointCloud no_ground =
          remove_ground(world.scan_from(v.id()).cloud, ground);
      if (!merge) {
        out.push_back(no_ground);
        continue;
      }
      const geom::Pose pose = v.sensor_pose(world.network());
      merged.append(no_ground.transformed(geom::Mat4::from_pose(pose)));
    }
    if (merge) {
      out.push_back(
          merged.filtered([](const geom::Vec3& p) { return p.z > 0.25; }));
    }
  }
  return out;
}

}  // namespace erpd::pc
