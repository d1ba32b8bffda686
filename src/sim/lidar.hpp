#pragma once
// Ray-cast LiDAR model (stands in for CARLA's 64-channel roof LiDAR).
//
// The sensor spins through a configurable set of azimuths; each azimuth is a
// 2-D ray over the scene's object footprints (vehicles, pedestrians, static
// props, buildings). The nearest hit occludes everything behind it — exactly
// the line-of-sight limitation the paper's system exists to overcome. For a
// hit at horizontal distance d, every vertical channel whose elevation puts
// the beam between the object's base and top produces a return; downward
// channels that reach the ground before any obstacle produce ground returns
// (which the vehicle-side pipeline later removes by z-threshold).
//
// Point counts scale with channels x azimuth resolution, so the bandwidth
// experiments can run the paper's ~1M-point frames or a proportionally
// scaled-down sensor with identical geometry.

#include <cstdint>
#include <random>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/det_hash.hpp"
#include "geom/mat4.hpp"
#include "geom/obb.hpp"
#include "pointcloud/pointcloud.hpp"
#include "sim/types.hpp"

namespace erpd::sim {

struct LidarConfig {
  int channels{32};
  double vertical_fov_min_deg{-24.0};
  double vertical_fov_max_deg{4.0};
  /// Horizontal angular resolution (degrees); 0.4 deg -> 900 azimuths.
  double azimuth_step_deg{0.4};
  double max_range{50.0};
  /// Gaussian range noise (meters); 0 disables.
  double noise_sigma{0.01};

  int azimuth_count() const {
    return static_cast<int>(360.0 / azimuth_step_deg);
  }
  /// Upper bound on returns per frame.
  std::size_t max_points() const {
    return static_cast<std::size_t>(channels) *
           static_cast<std::size_t>(azimuth_count());
  }
};

/// Something a LiDAR beam can hit: a vertical prism over a planar footprint.
struct LidarTarget {
  geom::Obb footprint;
  double base_z{0.0};
  double height{1.6};
  /// Agent id for dynamic objects; negative ids mark static scenery.
  AgentId id{kInvalidAgent};
};

struct LidarScan {
  /// Returns in the sensor frame (x forward at yaw=0 ... standard right-
  /// handed frame; z up, sensor at origin).
  pc::PointCloud cloud;
  /// Number of returns per dynamic agent id (ids >= 0 only). Consumers do
  /// keyed lookups (sees()) or commutative folds only — never order-bearing
  /// iteration — so a hash map is safe here; core::DetHash makes the bucket
  /// layout platform-stable and lets the determinism torture scramble it
  /// (ERPD_DETLINT_SHUFFLE) to prove no output depends on it.
  std::unordered_map<AgentId, std::size_t, core::DetHash<AgentId>>
      points_per_agent;
  std::size_t ground_points{0};
  std::size_t static_points{0};

  bool sees(AgentId id, std::size_t min_points = 3) const {
    const auto it = points_per_agent.find(id);
    return it != points_per_agent.end() && it->second >= min_points;
  }
};

class LidarSensor {
 public:
  explicit LidarSensor(LidarConfig cfg = {});

  const LidarConfig& config() const { return cfg_; }

  /// Scan the scene from `pose` (sensor origin, world frame).
  LidarScan scan(const geom::Pose& pose, std::span<const LidarTarget> targets,
                 std::mt19937_64& rng) const;

  /// Route scans through the brute-force reference path: the pre-index
  /// O(azimuths x candidates) loop, kept as an executable specification.
  /// The accelerated path is bit-identical to it (pinned by
  /// test_lidar_equivalence). Off by default.
  void set_brute_force(bool brute) { brute_force_ = brute; }
  bool brute_force() const { return brute_force_; }

 private:
  LidarConfig cfg_;
  std::vector<double> elevations_;  // per-channel elevation (radians)
  /// tan(elevation) per channel, hoisted out of the per-azimuth loop (same
  /// std::tan call on the same double, so the values are bit-identical).
  std::vector<double> tan_elevations_;
  /// Per-azimuth world heading and unit direction. Pure functions of the
  /// azimuth index and configuration (never of the pose), precomputed with
  /// the scan loop's exact expressions so the accelerated path can skip one
  /// sincos per ray per scan.
  std::vector<double> azimuth_world_;
  std::vector<geom::Vec2> azimuth_dirs_;
  bool brute_force_{false};
};

/// Cheap line-of-sight test used by the driver model: true if the segment
/// from `eye` to `target_point` is not blocked by any occluder footprint.
/// The occluder list should exclude the viewer and the target themselves.
bool line_of_sight(geom::Vec2 eye, geom::Vec2 target_point,
                   std::span<const geom::Obb> occluders);

}  // namespace erpd::sim
