#pragma once
// Serial reference for pc::voxel_downsample: the open-addressing kernel it
// replaced, kept as the oracle of test_voxel_equivalence. Each slot holds
// the whole accumulator (key, sum, count), probed from an FNV-style hash of
// the three coordinates; output is the centroid per voxel in first-seen
// order. It shares only pc::voxel_of with src/, so agreeing with it byte for
// byte, order included, is evidence, not tautology.

#include "pointcloud/pointcloud.hpp"

namespace erpd::pc {

/// Centroid per occupied voxel of side `voxel_size` (> 0), in first-seen
/// voxel order, each sum starting from zero in input order.
PointCloud oracle_voxel_downsample(const PointCloud& cloud,
                                   double voxel_size);

}  // namespace erpd::pc
