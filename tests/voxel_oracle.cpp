#include "voxel_oracle.hpp"

#include <cstdint>
#include <vector>

#include "pointcloud/voxel_grid.hpp"

namespace erpd::pc {
namespace {

std::size_t fnv_hash(const VoxelKey& k) {
  std::size_t h = 1469598103934665603ull;
  for (std::int64_t v : {k.x, k.y, k.z}) {
    h ^= static_cast<std::size_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

PointCloud oracle_voxel_downsample(const PointCloud& cloud,
                                   double voxel_size) {
  if (cloud.empty()) return {};
  // Linear probing, power-of-two capacity, load factor <= 0.5.
  struct Acc {
    VoxelKey key;
    geom::Vec3 sum{};
    std::uint32_t n{0};
  };
  std::size_t cap = 16;
  while (cap < cloud.size() * 2) cap <<= 1;
  std::vector<Acc> slots(cap);
  std::vector<std::size_t> order;
  const std::size_t mask = cap - 1;
  for (const geom::Vec3& p : cloud.points()) {
    const VoxelKey k = voxel_of(p, voxel_size);
    std::size_t s = fnv_hash(k) & mask;
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
  for (const std::size_t s : order) {
    out.push_back(slots[s].sum / static_cast<double>(slots[s].n));
  }
  return out;
}

}  // namespace erpd::pc
