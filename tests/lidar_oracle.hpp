#pragma once
// Serial textbook references for sim::LidarSensor::scan (DESIGN.md §14)
// and for the driver model's sim::SightOccluders (DESIGN.md §19).
//
// oracle_scan is the sensor written the obvious way: for every azimuth, test
// every in-range target's circumcircle span, ray-cast each candidate with
// Obb::ray_hit, std::sort the hits on (distance, candidate index), walk the
// channels with a per-channel std::tan, and draw range noise through
// std::normal_distribution from the azimuth's own SplitMix64 stream. Points
// are collected in the world frame and moved to the sensor frame at the end.
// It shares no scan code with src/ — no azimuth index, no ObbRaySoa, no
// NormalSampler, no thread pool — so agreeing with it bit for bit is
// evidence, not tautology. test_lidar_equivalence, the LiDAR unit tests and
// bench/perf_lidar compare LidarSensor::scan against it.

#include <random>
#include <span>

#include "geom/mat4.hpp"
#include "sim/lidar.hpp"

namespace erpd::sim {

/// Scan `targets` from `pose` with a sensor configured by `cfg` (which must
/// satisfy LidarSensor's constructor contract). Consumes `rng` exactly as
/// LidarSensor::scan does: one draw when noise is on, none otherwise.
LidarScan oracle_scan(const LidarConfig& cfg, const geom::Pose& pose,
                      std::span<const LidarTarget> targets,
                      std::mt19937_64& rng);

/// Line of sight written the obvious way: the segment from `eye` to
/// `target_point` is blocked when any occluder's Obb::ray_hit lands in
/// [0, 1). Every box is ray-cast, in order, with no culling and no
/// ObbRaySoa. The occluder list should exclude the viewer and the target.
bool oracle_line_of_sight(geom::Vec2 eye, geom::Vec2 target_point,
                          std::span<const geom::Obb> occluders);

}  // namespace erpd::sim
