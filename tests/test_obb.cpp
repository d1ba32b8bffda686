#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "geom/angle.hpp"
#include "geom/obb.hpp"

namespace erpd::geom {
namespace {

TEST(Obb, CornersOfAxisAlignedBox) {
  const Obb box{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const auto c = box.corners();
  // front-left, rear-left, rear-right, front-right
  EXPECT_NEAR(c[0].x, 2.0, 1e-12);
  EXPECT_NEAR(c[0].y, 1.0, 1e-12);
  EXPECT_NEAR(c[2].x, -2.0, 1e-12);
  EXPECT_NEAR(c[2].y, -1.0, 1e-12);
}

TEST(Obb, ContainsInsideOutside) {
  const Obb box{{5.0, 5.0}, kPi / 4.0, 4.0, 2.0};
  EXPECT_TRUE(box.contains({5.0, 5.0}));
  EXPECT_TRUE(box.contains(box.corners()[0]));
  EXPECT_FALSE(box.contains({9.0, 5.0}));
}

TEST(Obb, OverlapsSeparatedBoxes) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{10.0, 0.0}, 0.0, 4.0, 2.0};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(b.overlaps(a));
}

TEST(Obb, OverlapsIntersectingBoxes) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{3.0, 0.0}, 0.0, 4.0, 2.0};
  EXPECT_TRUE(a.overlaps(b));
}

TEST(Obb, OverlapsRotatedNearMiss) {
  // Diamond (45 deg) next to a box: corners interleave without overlap.
  const Obb a{{0.0, 0.0}, 0.0, 2.0, 2.0};
  const Obb b{{2.5, 0.0}, kPi / 4.0, 2.0, 2.0};
  EXPECT_FALSE(a.overlaps(b));
  const Obb c{{1.8, 0.0}, kPi / 4.0, 2.0, 2.0};
  EXPECT_TRUE(a.overlaps(c));
}

TEST(Obb, DistanceZeroWhenOverlapping) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{1.0, 0.0}, 0.3, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(a.distance_to(b), 0.0);
}

TEST(Obb, DistanceBetweenParallelBoxes) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{10.0, 0.0}, 0.0, 4.0, 2.0};
  // Facing edges at x=2 and x=8.
  EXPECT_NEAR(a.distance_to(b), 6.0, 1e-9);
  EXPECT_NEAR(b.distance_to(a), 6.0, 1e-9);
}

TEST(Obb, DistanceToPoint) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(a.distance_to(Vec2{0.0, 0.0}), 0.0);
  EXPECT_NEAR(a.distance_to(Vec2{5.0, 0.0}), 3.0, 1e-12);
  EXPECT_NEAR(a.distance_to(Vec2{2.0 + 3.0, 1.0 + 4.0}), 5.0, 1e-12);
}

TEST(Obb, RayHitFrontFace) {
  const Obb a{{10.0, 0.0}, 0.0, 4.0, 2.0};
  const Segment ray{{0.0, 0.0}, {20.0, 0.0}};
  const double t = a.ray_hit(ray);
  ASSERT_GE(t, 0.0);
  EXPECT_NEAR(t * 20.0, 8.0, 1e-9);  // hits the near face at x=8
}

TEST(Obb, RayMiss) {
  const Obb a{{10.0, 5.0}, 0.0, 4.0, 2.0};
  const Segment ray{{0.0, 0.0}, {20.0, 0.0}};
  EXPECT_LT(a.ray_hit(ray), 0.0);
}

TEST(Obb, RayFromInsideHitsAtZero) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Segment ray{{0.0, 0.0}, {20.0, 0.0}};
  EXPECT_DOUBLE_EQ(a.ray_hit(ray), 0.0);
}

TEST(Obb, AabbBoundsRotatedBox) {
  const Obb a{{0.0, 0.0}, kPi / 4.0, 2.0, 2.0};
  const Aabb box = a.aabb();
  const double half_diag = std::sqrt(2.0);
  EXPECT_NEAR(box.max.x, half_diag, 1e-9);
  EXPECT_NEAR(box.min.y, -half_diag, 1e-9);
}

TEST(Obb, MaxExtent) {
  EXPECT_DOUBLE_EQ((Obb{{0, 0}, 0.0, 4.5, 1.9}).max_extent(), 4.5);
  EXPECT_DOUBLE_EQ((Obb{{0, 0}, 0.0, 0.5, 0.6}).max_extent(), 0.6);
}

class ObbOverlapSymmetry
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ObbOverlapSymmetry, OverlapIsSymmetric) {
  const auto [dx, heading] = GetParam();
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{dx, 1.0}, heading, 4.0, 2.0};
  EXPECT_EQ(a.overlaps(b), b.overlaps(a));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ObbOverlapSymmetry,
    ::testing::Combine(::testing::Values(0.0, 1.0, 2.5, 4.0, 6.0),
                       ::testing::Values(0.0, 0.5, 1.0, kPi / 2.0)));

// ObbRaySoa::ray_hit promises Obb::ray_hit's exact bits for every ray from
// the eye it was built with (the LiDAR scan hashes cloud bytes, so "close"
// is not enough). Seeded sweep over random boxes and rays, plus the
// geometric edge cases: eye inside, on and just off the boundary, rays
// collinear with an edge and rays through a corner.
TEST(ObbRaySoa, RayHitMatchesObbRayHitBitExact) {
  std::mt19937_64 rng(0x0bb5);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * u01(rng);
  };
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };

  std::size_t checked = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t collinear_hits = 0;
  const auto check = [&](const ObbRaySoa& soa, const std::vector<Obb>& boxes,
                         const Segment& ray, bool collinear) {
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      const double want = boxes[i].ray_hit(ray);
      const double got = soa.ray_hit(i, ray);
      ASSERT_TRUE(same_bits(want, got))
          << "box " << i << " ray (" << ray.a.x << ", " << ray.a.y
          << ") -> (" << ray.b.x << ", " << ray.b.y << "): " << want
          << " vs " << got;
      ++checked;
      (want >= 0.0 ? hits : misses) += 1;
      if (collinear && want >= 0.0) ++collinear_hits;
    }
  };

  for (int scene = 0; scene < 200; ++scene) {
    const Vec2 eye{uniform(-20.0, 20.0), uniform(-20.0, 20.0)};
    // Half the scenes are axis-aligned, so edges and rays can be exactly
    // collinear in floating point.
    const bool aligned = scene % 2 == 0;
    std::vector<Obb> boxes;
    for (int b = 0; b < 6; ++b) {
      const double heading = aligned ? 0.0 : uniform(-kPi, kPi);
      const double length = uniform(0.2, 12.0);
      const double width = uniform(0.2, 4.0);
      Vec2 center{uniform(-40.0, 40.0), uniform(-40.0, 40.0)};
      if (b == 0) center = eye + Vec2{uniform(-0.5, 0.5), uniform(-0.1, 0.1)};
      boxes.emplace_back(center, heading, length, width);
    }
    // Boxes whose boundary passes through (or within a hair of) the eye:
    // shift a box so a point on one of its edges lands on the eye.
    for (const double off : {0.0, 1e-12, 1e-9, 2e-9, 1e-6, -1e-9}) {
      const Obb base{{0.0, 0.0}, aligned ? 0.0 : uniform(-kPi, kPi),
                     uniform(0.5, 6.0), uniform(0.5, 3.0)};
      const auto e = base.edges()[static_cast<std::size_t>(scene) % 4];
      const Vec2 on_edge = e.a + (e.b - e.a) * u01(rng);
      const Vec2 outward = (on_edge - base.center()).normalized();
      boxes.emplace_back(eye - on_edge - outward * off, base.heading(),
                         base.length(), base.width());
    }
    // A box with the eye exactly on a corner.
    {
      const Obb base{{0.0, 0.0}, aligned ? 0.0 : uniform(-kPi, kPi), 3.0, 2.0};
      boxes.emplace_back(eye - base.corners()[1], base.heading(),
                         base.length(), base.width());
    }

    ObbRaySoa soa;
    for (const Obb& box : boxes) soa.add(box, eye);
    ASSERT_EQ(soa.size(), boxes.size());
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      ASSERT_EQ(soa.eye_inside(i), boxes[i].contains(eye));
    }

    // Random rays from the eye.
    for (int r = 0; r < 24; ++r) {
      const Vec2 dir = Vec2::from_heading(uniform(-kPi, kPi));
      check(soa, boxes, Segment{eye, eye + dir * uniform(1.0, 80.0)}, false);
    }
    for (const Obb& box : boxes) {
      for (const Segment& e : box.edges()) {
        // Rays along an edge's supporting line, both ways (collinear with
        // the edge: intersect's parallel branch).
        const Vec2 s = e.b - e.a;
        check(soa, boxes, Segment{eye, eye + s * 20.0}, true);
        check(soa, boxes, Segment{eye, eye - s * 20.0}, true);
        // Rays through each corner, stopping short, at, and beyond it.
        for (const double k : {0.5, 1.0, 3.0}) {
          check(soa, boxes, Segment{eye, eye + (e.a - eye) * k}, false);
        }
      }
    }
    // Rays that start on a box edge's line and run along it (eye collinear
    // with an edge of a box outside it).
    const Obb line_box{eye + Vec2{7.0, 0.0}, 0.0, 4.0, 2.0};
    ObbRaySoa line_soa;
    line_soa.add(line_box, eye + Vec2{0.0, 1.0});
    check(line_soa, {line_box},
          Segment{eye + Vec2{0.0, 1.0}, eye + Vec2{20.0, 1.0}}, true);
  }
  EXPECT_GT(checked, 100000u);
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(misses, 1000u);
  EXPECT_GT(collinear_hits, 100u);
}

}  // namespace
}  // namespace erpd::geom
