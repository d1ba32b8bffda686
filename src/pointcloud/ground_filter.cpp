#include "pointcloud/ground_filter.hpp"

namespace erpd::pc {

PointCloud remove_ground(const PointCloud& cloud,
                         const GroundFilterConfig& cfg) {
  const double cutoff = ground_cutoff(cfg);
  std::size_t kept = 0;
  for (const geom::Vec3& p : cloud.points()) kept += p.z > cutoff;
  PointCloud out;
  out.reserve(kept);
  remove_ground(cloud, cfg, out);
  return out;
}

void remove_ground(const PointCloud& cloud, const GroundFilterConfig& cfg,
                   PointCloud& out) {
  const double cutoff = ground_cutoff(cfg);
  out.clear();
  for (const geom::Vec3& p : cloud.points()) {
    if (p.z > cutoff) out.push_back(p);
  }
}

double ground_fraction(const PointCloud& cloud, const GroundFilterConfig& cfg) {
  if (cloud.empty()) return 0.0;
  const double cutoff = ground_cutoff(cfg);
  std::size_t ground = 0;
  for (const geom::Vec3& p : cloud.points()) {
    if (p.z <= cutoff) ++ground;
  }
  return static_cast<double>(ground) / static_cast<double>(cloud.size());
}

}  // namespace erpd::pc
