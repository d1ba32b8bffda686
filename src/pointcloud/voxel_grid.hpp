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

VoxelKey voxel_of(geom::Vec3 p, double voxel_size);

/// Working memory of voxel_downsample, kept by callers that thin a cloud
/// every frame so its capacity is reused. It holds capacity only: a call
/// overwrites everything it reads, so which scratch is passed never changes
/// an output.
struct VoxelScratch {
  struct Acc {
    VoxelKey key;
    geom::Vec3 sum{};
    std::uint32_t n{0};
  };
  /// Open-addressing table of 4-byte slots, a power of two >= 2n: 0 is
  /// empty, otherwise an index into `acc` plus one.
  std::vector<std::uint32_t> slots;
  /// One accumulator per occupied voxel, in first-seen order.
  std::vector<Acc> acc;
};

/// Downsample: centroid of the points in each occupied voxel. Output order is
/// first-seen voxel order (deterministic for a given input order); each sum
/// starts from zero and adds the voxel's points in input order.
PointCloud voxel_downsample(const PointCloud& cloud, double voxel_size);

/// The same, written into `out` with `scratch` as working memory. `out` may
/// be `cloud` itself: the input is read in full before the first write.
void voxel_downsample(const PointCloud& cloud, double voxel_size,
                      PointCloud& out, VoxelScratch& scratch);

}  // namespace erpd::pc
