#include <gtest/gtest.h>

#include "core/check.hpp"

#include "geom/angle.hpp"
#include "pointcloud/ground_filter.hpp"
#include "pointcloud/pointcloud.hpp"
#include "pointcloud/voxel_grid.hpp"

namespace erpd::pc {
namespace {

using geom::Vec3;

TEST(PointCloud, BasicContainerOps) {
  PointCloud c;
  EXPECT_TRUE(c.empty());
  c.push_back({1.0, 2.0, 3.0});
  c.push_back({4.0, 5.0, 6.0});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[1], Vec3(4.0, 5.0, 6.0));
  c.clear();
  EXPECT_TRUE(c.empty());
}

TEST(PointCloud, AppendConcatenates) {
  PointCloud a{{{1, 1, 1}}};
  const PointCloud b{{{2, 2, 2}, {3, 3, 3}}};
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2], Vec3(3, 3, 3));
}

TEST(PointCloud, TransformAppliesRigidMotion) {
  PointCloud c{{{1.0, 0.0, 0.0}}};
  c.transform(geom::Mat4::translation({0.0, 0.0, 5.0}));
  EXPECT_EQ(c[0], Vec3(1.0, 0.0, 5.0));
  const PointCloud r =
      c.transformed(geom::Mat4::rotation_z(geom::kPi / 2.0));
  EXPECT_NEAR(r[0].x, 0.0, 1e-12);
  EXPECT_NEAR(r[0].y, 1.0, 1e-12);
  // Original unchanged by transformed().
  EXPECT_EQ(c[0], Vec3(1.0, 0.0, 5.0));
}

TEST(PointCloud, FilteredKeepsPredicate) {
  const PointCloud c{{{0, 0, -1}, {0, 0, 1}, {0, 0, 2}}};
  const PointCloud pos = c.filtered([](const Vec3& p) { return p.z > 0; });
  EXPECT_EQ(pos.size(), 2u);
}

TEST(PointCloud, SubsetByIndices) {
  const PointCloud c{{{1, 0, 0}, {2, 0, 0}, {3, 0, 0}}};
  const std::vector<std::size_t> idx{2, 0};
  const PointCloud s = c.subset(idx);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], Vec3(3, 0, 0));
  EXPECT_EQ(s[1], Vec3(1, 0, 0));
}

TEST(PointCloud, AabbAndCentroid) {
  const PointCloud c{{{0, 0, 0}, {4, 2, 8}}};
  const geom::Aabb box = c.aabb_xy();
  EXPECT_EQ(box.min, geom::Vec2(0, 0));
  EXPECT_EQ(box.max, geom::Vec2(4, 2));
  EXPECT_EQ(c.centroid(), Vec3(2, 1, 4));
  EXPECT_EQ(PointCloud{}.centroid(), Vec3());
}

TEST(PointCloud, RawSizeBytes) {
  PointCloud c;
  for (int i = 0; i < 100; ++i) c.push_back({0, 0, 0});
  EXPECT_EQ(c.raw_size_bytes(), 100u * kRawBytesPerPoint);
}

TEST(GroundFilter, RemovesOnlyGroundPlane) {
  // Sensor at 1.8 m: ground points have z = -1.8 in the sensor frame.
  PointCloud c;
  for (int i = 0; i < 50; ++i) c.push_back({1.0 * i, 0.0, -1.8});
  for (int i = 0; i < 20; ++i) c.push_back({1.0 * i, 2.0, -0.5});
  const GroundFilterConfig cfg{1.8, 0.15};
  const PointCloud out = remove_ground(c, cfg);
  EXPECT_EQ(out.size(), 20u);
  EXPECT_NEAR(ground_fraction(c, cfg), 50.0 / 70.0, 1e-12);
}

TEST(GroundFilter, EpsilonToleratesNoise) {
  PointCloud c{{{0, 0, -1.75}, {0, 0, -1.6}}};
  const GroundFilterConfig cfg{1.8, 0.15};
  const PointCloud out = remove_ground(c, cfg);
  // -1.75 is within epsilon of the ground -> removed; -1.6 survives.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].z, -1.6);
}

TEST(GroundFilter, EmptyCloud) {
  EXPECT_TRUE(remove_ground(PointCloud{}, {}).empty());
  EXPECT_DOUBLE_EQ(ground_fraction(PointCloud{}, {}), 0.0);
}

TEST(VoxelGrid, DownsampleMergesVoxelmates) {
  PointCloud c{{{0.1, 0.1, 0.1}, {0.2, 0.2, 0.2}, {5.0, 5.0, 5.0}}};
  const PointCloud d = voxel_downsample(c, 1.0);
  EXPECT_EQ(d.size(), 2u);
}

TEST(VoxelGrid, DownsampleCentroidIsMean) {
  PointCloud c{{{0.2, 0.0, 0.0}, {0.4, 0.0, 0.0}}};
  const PointCloud d = voxel_downsample(c, 1.0);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_NEAR(d[0].x, 0.3, 1e-12);
}

TEST(VoxelGrid, InvalidVoxelSizeThrows) {
  EXPECT_THROW(voxel_downsample(PointCloud{}, 0.0), erpd::ContractViolation);
  EXPECT_THROW(voxel_downsample(PointCloud{}, -1.0), erpd::ContractViolation);
}

TEST(VoxelGrid, NegativeCoordinatesBinCorrectly) {
  // Points straddling zero must land in different voxels.
  PointCloud c{{{-0.1, 0.0, 0.0}, {0.1, 0.0, 0.0}}};
  EXPECT_EQ(voxel_downsample(c, 1.0).size(), 2u);
}

}  // namespace
}  // namespace erpd::pc
