#pragma once
// Voxel-grid downsampling: one representative (centroid) per occupied voxel,
// the data reduction stage ahead of DBSCAN.

#include <cstdint>
#include <vector>

#include "pointcloud/pointcloud.hpp"

namespace erpd::pc {

/// Integer voxel coordinate.
struct VoxelKey {
  std::int64_t x{0};
  std::int64_t y{0};
  std::int64_t z{0};
  bool operator==(const VoxelKey&) const = default;
};

struct VoxelKeyHash {
  std::size_t operator()(const VoxelKey& k) const {
    // FNV-style mix of the three packed coordinates.
    std::size_t h = 1469598103934665603ull;
    for (std::int64_t v : {k.x, k.y, k.z}) {
      h ^= static_cast<std::size_t>(v);
      h *= 1099511628211ull;
    }
    return h;
  }
};

VoxelKey voxel_of(geom::Vec3 p, double voxel_size);

/// Downsample: centroid of the points in each occupied voxel. Output order is
/// first-seen voxel order (deterministic for a given input order).
PointCloud voxel_downsample(const PointCloud& cloud, double voxel_size);

}  // namespace erpd::pc
