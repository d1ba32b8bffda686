#include <gtest/gtest.h>

#include "geom/angle.hpp"
#include "geom/mat4.hpp"

namespace erpd::geom {
namespace {

TEST(Mat4, IdentityLeavesPointsAlone) {
  const Vec3 p{1.0, -2.0, 3.0};
  EXPECT_EQ(Mat4::identity().transform_point(p), p);
}

TEST(Mat4, TranslationMovesPoints) {
  const Mat4 t = Mat4::translation({1.0, 2.0, 3.0});
  EXPECT_EQ(t.transform_point({0.0, 0.0, 0.0}), Vec3(1.0, 2.0, 3.0));
}

TEST(Mat4, RotationZQuarterTurn) {
  const Mat4 r = Mat4::rotation_z(kPi / 2.0);
  const Vec3 p = r.transform_point({1.0, 0.0, 5.0});
  EXPECT_NEAR(p.x, 0.0, 1e-12);
  EXPECT_NEAR(p.y, 1.0, 1e-12);
  EXPECT_NEAR(p.z, 5.0, 1e-12);
}

TEST(Mat4, ComposeTranslationAfterRotation) {
  const Mat4 m = Mat4::translation({10.0, 0.0, 0.0}) * Mat4::rotation_z(kPi);
  const Vec3 p = m.transform_point({1.0, 0.0, 0.0});
  EXPECT_NEAR(p.x, 9.0, 1e-12);
  EXPECT_NEAR(p.y, 0.0, 1e-12);
}

TEST(Mat4, FromPoseMatchesPaperProjection) {
  // A sensor at (5, -3, 1.8) yawed 90deg: the sensor's +x axis points along
  // world +y. [Wx,Wy,Wz,1]^T = T_lw [x,y,z,1]^T.
  Pose pose;
  pose.position = {5.0, -3.0, 1.8};
  pose.yaw = kPi / 2.0;
  const Mat4 t_lw = Mat4::from_pose(pose);
  const Vec3 w = t_lw.transform_point({2.0, 0.0, 0.0});
  EXPECT_NEAR(w.x, 5.0, 1e-12);
  EXPECT_NEAR(w.y, -1.0, 1e-12);
  EXPECT_NEAR(w.z, 1.8, 1e-12);
}

TEST(Mat4, SensorOriginMapsToPosition) {
  Pose pose;
  pose.position = {-7.0, 11.0, 2.0};
  pose.yaw = 0.77;
  pose.pitch = 0.1;
  pose.roll = -0.2;
  const Vec3 w = Mat4::from_pose(pose).transform_point({0.0, 0.0, 0.0});
  EXPECT_NEAR(w.x, pose.position.x, 1e-12);
  EXPECT_NEAR(w.y, pose.position.y, 1e-12);
  EXPECT_NEAR(w.z, pose.position.z, 1e-12);
}

class Mat4PoseRoundTrip : public ::testing::TestWithParam<Pose> {};

TEST_P(Mat4PoseRoundTrip, RigidInverseUndoesTransform) {
  const Mat4 t = Mat4::from_pose(GetParam());
  const Mat4 inv = t.rigid_inverse();
  EXPECT_TRUE((t * inv).almost_equal(Mat4::identity(), 1e-9));
  EXPECT_TRUE((inv * t).almost_equal(Mat4::identity(), 1e-9));
  for (const Vec3& p :
       {Vec3{0, 0, 0}, Vec3{10, -5, 2}, Vec3{-3.3, 7.7, -1.1}}) {
    const Vec3 rt = inv.transform_point(t.transform_point(p));
    EXPECT_NEAR(rt.x, p.x, 1e-9);
    EXPECT_NEAR(rt.y, p.y, 1e-9);
    EXPECT_NEAR(rt.z, p.z, 1e-9);
  }
}

TEST_P(Mat4PoseRoundTrip, PreservesDistances) {
  const Mat4 t = Mat4::from_pose(GetParam());
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-4.0, 0.5, 9.0};
  EXPECT_NEAR(distance(t.transform_point(a), t.transform_point(b)),
              distance(a, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Poses, Mat4PoseRoundTrip,
    ::testing::Values(Pose{{0, 0, 0}, 0, 0, 0}, Pose{{5, -3, 1.8}, 1.2, 0, 0},
                      Pose{{100, 200, 2}, -2.5, 0.05, -0.02},
                      Pose{{-7, 3, 1.5}, 3.1, -0.1, 0.1},
                      Pose{{0.1, 0.2, 0.3}, 0.5, 0.6, 0.7}));

}  // namespace
}  // namespace erpd::geom
