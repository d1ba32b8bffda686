#pragma once
// Real LiDAR clouds for the point-cloud equivalence suites: ground-filtered
// vehicle scans of the unprotected left-turn scene, as the on-vehicle
// extractor sees them, and the merged world-frame clouds the EMP edge
// re-segments.

#include <vector>

#include "pointcloud/pointcloud.hpp"
#include "sim/scenario.hpp"

namespace erpd::pc {

/// The left-turn scene (seed 5, 16 vehicles, 4 pedestrians, half
/// connected) with a LiDAR of `channels` x `azimuth_step_deg`.
sim::ScenarioConfig real_scan_scene(int channels, double azimuth_step_deg);

/// Ground-filtered scans of up to four connected vehicles, every 15 ticks,
/// three times; `merge` instead concatenates each tick's world-frame clouds
/// and strips them at the edge's 0.25 m ground cut.
std::vector<PointCloud> real_clouds(const sim::ScenarioConfig& cfg,
                                    bool merge);

}  // namespace erpd::pc
