#include "pointcloud/voxel_grid.hpp"

#include <cmath>

#include "core/check.hpp"

namespace erpd::pc {

VoxelKey voxel_of(geom::Vec3 p, double voxel_size) {
  return {static_cast<std::int64_t>(std::floor(p.x / voxel_size)),
          static_cast<std::int64_t>(std::floor(p.y / voxel_size)),
          static_cast<std::int64_t>(std::floor(p.z / voxel_size))};
}

PointCloud voxel_downsample(const PointCloud& cloud, double voxel_size) {
  ERPD_REQUIRE(voxel_size > 0.0,
               "voxel_downsample: voxel_size must be > 0, got ", voxel_size);
  if (cloud.empty()) return {};

  // Flat open-addressing accumulator (linear probing, power-of-two capacity,
  // load factor <= 0.5). Compared to unordered_map this removes per-node
  // allocations on the hot path and makes the output order first-seen —
  // deterministic for a given input instead of hash-layout dependent.
  struct Acc {
    VoxelKey key;
    geom::Vec3 sum{};
    std::uint32_t n{0};
  };
  std::size_t cap = 16;
  while (cap < cloud.size() * 2) cap <<= 1;
  std::vector<Acc> slots(cap);
  std::vector<std::size_t> order;
  order.reserve(cloud.size() / 2);
  const VoxelKeyHash hash;
  const std::size_t mask = cap - 1;
  for (const geom::Vec3& p : cloud.points()) {
    const VoxelKey k = voxel_of(p, voxel_size);
    std::size_t s = hash(k) & mask;
    while (slots[s].n != 0 && !(slots[s].key == k)) s = (s + 1) & mask;
    Acc& a = slots[s];
    if (a.n == 0) {
      a.key = k;
      order.push_back(s);
    }
    a.sum += p;
    ++a.n;
  }
  PointCloud out;
  out.reserve(order.size());
  for (const std::size_t s : order) {
    out.push_back(slots[s].sum / static_cast<double>(slots[s].n));
  }
  return out;
}

}  // namespace erpd::pc
