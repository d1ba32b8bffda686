#pragma once
// Serial textbook reference for sim::LidarSensor::scan (DESIGN.md §14).
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

}  // namespace erpd::sim
