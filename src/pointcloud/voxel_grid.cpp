#include "pointcloud/voxel_grid.hpp"

#include <cmath>

#include "core/check.hpp"

namespace erpd::pc {

VoxelKey voxel_of(geom::Vec3 p, double voxel_size) {
  return {static_cast<std::int64_t>(std::floor(p.x / voxel_size)),
          static_cast<std::int64_t>(std::floor(p.y / voxel_size)),
          static_cast<std::int64_t>(std::floor(p.z / voxel_size))};
}

namespace {

/// First slot of a 2^bits table to probe for `k`: the top bits of a
/// multiplicative mix of its coordinates.
std::size_t probe_start(const VoxelKey& k, unsigned bits) {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(k.x) * 0x9e3779b97f4a7c15ull) ^
      (static_cast<std::uint64_t>(k.y) * 0xc2b2ae3d27d4eb4full) ^
      (static_cast<std::uint64_t>(k.z) * 0x165667b19e3779f9ull);
  return static_cast<std::size_t>((h * 0xff51afd7ed558ccdull) >> (64 - bits));
}

}  // namespace

PointCloud voxel_downsample(const PointCloud& cloud, double voxel_size) {
  PointCloud out;
  VoxelScratch scratch;
  scratch.acc.reserve(cloud.size());  // at most one voxel per point
  voxel_downsample(cloud, voxel_size, out, scratch);
  return out;
}

void voxel_downsample(const PointCloud& cloud, double voxel_size,
                      PointCloud& out, VoxelScratch& scratch) {
  ERPD_REQUIRE(voxel_size > 0.0,
               "voxel_downsample: voxel_size must be > 0, got ", voxel_size);
  ERPD_REQUIRE(cloud.size() < (std::size_t{1} << 31),
               "voxel_downsample: over 2^31 points");
  if (cloud.empty()) {
    out.clear();
    return;
  }

  // Linear probing over 4-byte slots (load factor <= 0.5) that index a dense
  // accumulator array: the table a probe walks is 4 B a slot, not a whole
  // accumulator. The hash only sets where a key is probed for; the output
  // order is first-seen whatever it is.
  unsigned bits = 4;
  while ((std::size_t{1} << bits) < cloud.size() * 2) ++bits;
  std::vector<std::uint32_t>& slots = scratch.slots;
  std::vector<VoxelScratch::Acc>& acc = scratch.acc;
  slots.assign(std::size_t{1} << bits, 0);
  acc.clear();
  const std::size_t mask = slots.size() - 1;
  for (const geom::Vec3& p : cloud.points()) {
    const VoxelKey k = voxel_of(p, voxel_size);
    std::size_t s = probe_start(k, bits);
    while (slots[s] != 0 && !(acc[slots[s] - 1].key == k)) s = (s + 1) & mask;
    if (slots[s] == 0) {
      acc.push_back({k, {}, 0});
      slots[s] = static_cast<std::uint32_t>(acc.size());
    }
    VoxelScratch::Acc& a = acc[slots[s] - 1];
    a.sum += p;
    ++a.n;
  }
  // The input is read in full; from here on `out` may overwrite it (and
  // then already has the capacity).
  out.clear();
  out.reserve(acc.size());
  for (const VoxelScratch::Acc& a : acc) {
    out.push_back(a.sum / static_cast<double>(a.n));
  }
}

}  // namespace erpd::pc
