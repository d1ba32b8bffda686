#pragma once
// Ground removal (paper §II-B, first stage of Moving Objects Extraction).
//
// LiDAR sensors are mounted at a fixed height h above the ground, so ground
// returns sit near z = -h in the sensor frame. Points with z <= -h + eps are
// dropped; eps absorbs measurement noise and small road unevenness.

#include "pointcloud/pointcloud.hpp"

namespace erpd::pc {

struct GroundFilterConfig {
  /// Sensor mounting height above the ground plane, meters.
  double sensor_height{1.8};
  /// Tolerance above the nominal ground plane, meters.
  double epsilon{0.15};
};

/// Sensor-frame height at or below which a point is ground.
inline double ground_cutoff(const GroundFilterConfig& cfg) {
  return -cfg.sensor_height + cfg.epsilon;
}

/// Remove ground-plane points from a sensor-frame cloud. The output is sized
/// exactly: a count pass precedes the copy.
PointCloud remove_ground(const PointCloud& cloud, const GroundFilterConfig& cfg);

/// The same, written into `out`: cleared first, then grown only past its
/// kept capacity, so a buffer reused every frame settles at the largest
/// frame's size.
void remove_ground(const PointCloud& cloud, const GroundFilterConfig& cfg,
                   PointCloud& out);

/// Fraction of points classified as ground (diagnostic for the bandwidth
/// reduction reported in §II-B).
double ground_fraction(const PointCloud& cloud, const GroundFilterConfig& cfg);

}  // namespace erpd::pc
