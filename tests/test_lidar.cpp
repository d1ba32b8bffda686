#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <random>
#include <span>

#include "core/check.hpp"
#include "core/thread_pool.hpp"
#include "geom/angle.hpp"
#include "lidar_oracle.hpp"
#include "sim/lidar.hpp"

namespace erpd::sim {
namespace {

using geom::Obb;
using geom::Pose;
using geom::Vec2;

LidarConfig small_lidar() {
  LidarConfig cfg;
  cfg.channels = 16;
  cfg.azimuth_step_deg = 1.0;
  cfg.max_range = 50.0;
  cfg.noise_sigma = 0.0;
  return cfg;
}

Pose sensor_at(Vec2 xy, double yaw = 0.0) {
  Pose p;
  p.position = {xy, 1.8};
  p.yaw = yaw;
  return p;
}

TEST(Lidar, SeesTargetInRange) {
  LidarSensor lidar(small_lidar());
  std::mt19937_64 rng(1);
  const std::vector<LidarTarget> targets = {
      {Obb{{10.0, 0.0}, 0.0, 4.5, 1.9}, 0.0, 1.6, 7}};
  const LidarScan scan = lidar.scan(sensor_at({0.0, 0.0}), targets, rng);
  EXPECT_TRUE(scan.sees(7));
  EXPECT_GT(scan.points_per_agent.at(7), 5u);
}

TEST(Lidar, DoesNotSeeBeyondRange) {
  LidarSensor lidar(small_lidar());
  std::mt19937_64 rng(2);
  const std::vector<LidarTarget> targets = {
      {Obb{{80.0, 0.0}, 0.0, 4.5, 1.9}, 0.0, 1.6, 7}};
  const LidarScan scan = lidar.scan(sensor_at({0.0, 0.0}), targets, rng);
  EXPECT_FALSE(scan.sees(7));
}

TEST(Lidar, OcclusionBlocksHiddenTarget) {
  LidarSensor lidar(small_lidar());
  std::mt19937_64 rng(3);
  // A tall truck between the sensor and a pedestrian directly behind it.
  const std::vector<LidarTarget> targets = {
      {Obb{{10.0, 0.0}, 0.0, 8.5, 2.5}, 0.0, 3.4, 1},   // truck
      {Obb{{20.0, 0.0}, 0.0, 0.5, 0.5}, 0.0, 1.75, 2},  // pedestrian
  };
  const LidarScan scan = lidar.scan(sensor_at({0.0, 0.0}), targets, rng);
  EXPECT_TRUE(scan.sees(1));
  EXPECT_FALSE(scan.sees(2)) << "pedestrian behind truck must be occluded";
}

TEST(Lidar, TargetVisibleWhenNotAligned) {
  LidarSensor lidar(small_lidar());
  std::mt19937_64 rng(4);
  // Same scene but the pedestrian stands to the side of the truck.
  const std::vector<LidarTarget> targets = {
      {Obb{{10.0, 0.0}, 0.0, 8.5, 2.5}, 0.0, 3.4, 1},
      {Obb{{10.0, 10.0}, 0.0, 0.5, 0.5}, 0.0, 1.75, 2},
  };
  const LidarScan scan = lidar.scan(sensor_at({0.0, 0.0}), targets, rng);
  EXPECT_TRUE(scan.sees(2));
}

TEST(Lidar, GroundReturnsAtSensorHeightBand) {
  LidarSensor lidar(small_lidar());
  std::mt19937_64 rng(5);
  const LidarScan scan = lidar.scan(sensor_at({0.0, 0.0}), {}, rng);
  EXPECT_GT(scan.ground_points, 0u);
  // All returns must be ground (sensor frame z ~= -1.8).
  for (const geom::Vec3& p : scan.cloud.points()) {
    EXPECT_NEAR(p.z, -1.8, 1e-6);
  }
}

TEST(Lidar, PointsAreInSensorFrame) {
  LidarSensor lidar(small_lidar());
  std::mt19937_64 rng(6);
  // Sensor displaced and rotated: a target 10 m in front of the sensor's
  // nose must appear near (10, 0) in the sensor frame.
  const Pose pose = sensor_at({100.0, 50.0}, geom::kPi / 2.0);
  const std::vector<LidarTarget> targets = {
      {Obb{{100.0, 60.0}, geom::kPi / 2.0, 4.5, 1.9}, 0.0, 1.6, 3}};
  const LidarScan scan = lidar.scan(pose, targets, rng);
  ASSERT_TRUE(scan.sees(3));
  int near_nose = 0;
  for (const geom::Vec3& p : scan.cloud.points()) {
    if (p.z > -1.0 && std::abs(p.y) < 3.0 && p.x > 5.0 && p.x < 10.0) {
      ++near_nose;
    }
  }
  EXPECT_GT(near_nose, 0);
}

TEST(Lidar, StaticTargetsCountedSeparately) {
  LidarSensor lidar(small_lidar());
  std::mt19937_64 rng(7);
  const std::vector<LidarTarget> targets = {
      {Obb{{15.0, 5.0}, 0.0, 20.0, 20.0}, 0.0, 10.0, -5}};  // building
  const LidarScan scan = lidar.scan(sensor_at({0.0, 0.0}), targets, rng);
  EXPECT_GT(scan.static_points, 0u);
  EXPECT_TRUE(scan.points_per_agent.empty());
}

TEST(Lidar, MorePointsOnCloserTargets) {
  LidarSensor lidar(small_lidar());
  std::mt19937_64 rng(8);
  const std::vector<LidarTarget> near_t = {
      {Obb{{8.0, 0.0}, 0.0, 4.5, 1.9}, 0.0, 1.6, 1}};
  const std::vector<LidarTarget> far_t = {
      {Obb{{40.0, 0.0}, 0.0, 4.5, 1.9}, 0.0, 1.6, 1}};
  const auto s_near = lidar.scan(sensor_at({0.0, 0.0}), near_t, rng);
  const auto s_far = lidar.scan(sensor_at({0.0, 0.0}), far_t, rng);
  EXPECT_GT(s_near.points_per_agent.at(1), s_far.points_per_agent.at(1));
}

TEST(Lidar, PointBudgetMatchesConfig) {
  LidarConfig cfg = small_lidar();
  EXPECT_EQ(cfg.azimuth_count(), 360);
  EXPECT_EQ(cfg.max_points(), 360u * 16u);
  LidarSensor lidar(cfg);
  std::mt19937_64 rng(9);
  const LidarScan scan = lidar.scan(sensor_at({0.0, 0.0}), {}, rng);
  EXPECT_LE(scan.cloud.size(), cfg.max_points());
}

// The points_per_agent map is merged across parallel scan chunks with an
// ERPD_ORDER_INSENSITIVE per-key += fold (src/sim/lidar.cpp). That fold is
// only sound if the per-agent tallies partition the scan's dynamic returns
// exactly: every dynamic point counted once, no point counted twice, no
// worker-count dependence. Ground and static-scenery returns are tallied
// separately, so the identity under test is
//   sum(points_per_agent) == cloud.size() - ground_points - static_points
// at every worker count the determinism suite exercises.
TEST(Lidar, PerAgentCountsPartitionDynamicReturns) {
  LidarSensor lidar(small_lidar());
  const std::vector<LidarTarget> targets = {
      {Obb{{10.0, 0.0}, 0.0, 4.5, 1.9}, 0.0, 1.6, 1},    // near car
      {Obb{{25.0, 8.0}, 0.5, 4.5, 1.9}, 0.0, 1.6, 2},    // angled car
      {Obb{{18.0, -6.0}, 0.0, 0.5, 0.5}, 0.0, 1.75, 3},  // pedestrian
      {Obb{{30.0, -12.0}, 0.0, 20.0, 8.0}, 0.0, 9.0, -4},  // building
  };

  LidarScan reference;
  bool have_reference = false;
  for (const int workers : {1, 2, 8}) {
    core::set_thread_count(workers);
    std::mt19937_64 rng(42);
    const LidarScan scan = lidar.scan(sensor_at({0.0, 0.0}), targets, rng);

    std::size_t dynamic_total = 0;
    for (const auto& [id, n] : scan.points_per_agent) {
      EXPECT_GE(id, 0) << "static scenery id leaked into points_per_agent";
      dynamic_total += n;
    }
    EXPECT_EQ(dynamic_total,
              scan.cloud.size() - scan.ground_points - scan.static_points)
        << "per-agent tallies must partition dynamic returns at " << workers
        << " workers";
    EXPECT_GT(dynamic_total, 0u);

    if (!have_reference) {
      reference = scan;
      have_reference = true;
    } else {
      EXPECT_EQ(scan.cloud.size(), reference.cloud.size());
      EXPECT_EQ(scan.ground_points, reference.ground_points);
      EXPECT_EQ(scan.static_points, reference.static_points);
      EXPECT_EQ(scan.points_per_agent.size(), reference.points_per_agent.size());
      for (const auto& [id, n] : reference.points_per_agent) {
        const auto it = scan.points_per_agent.find(id);
        ASSERT_NE(it, scan.points_per_agent.end());
        EXPECT_EQ(it->second, n)
            << "agent " << id << " count drifted at " << workers << " workers";
      }
    }
  }
  core::set_thread_count(0);
}

// Regression for the equal-distance sort hazard: two targets with bitwise-
// identical footprints produce hits at exactly the same range on every
// azimuth, and the old distance-only comparator left their order — and thus
// which target the beam "strikes" — unspecified. The comparator now breaks
// ties on candidate index, so the first-listed target deterministically
// claims every tied beam, in both the sensor and the textbook oracle.
TEST(Lidar, EqualRangeHitsBreakTiesOnCandidateOrder) {
  const LidarSensor lidar(small_lidar());
  const Obb footprint{{12.0, 0.0}, 0.2, 4.0, 2.0};
  const std::vector<LidarTarget> ab = {
      {footprint, 0.0, 2.0, 1},
      {footprint, 0.0, 2.0, 2},  // same prism, listed second
  };
  const std::vector<LidarTarget> ba = {ab[1], ab[0]};
  const Pose pose = sensor_at({0.0, 0.0});

  for (const bool oracle : {false, true}) {
    const auto scan = [&](const std::vector<LidarTarget>& targets) {
      std::mt19937_64 rng(10);
      return oracle ? oracle_scan(lidar.config(), pose, targets, rng)
                    : lidar.scan(pose, targets, rng);
    };
    const LidarScan s_ab = scan(ab);
    const LidarScan s_ba = scan(ba);

    // Every tied beam goes to the first-listed target; the second gets none.
    ASSERT_TRUE(s_ab.sees(1)) << "oracle=" << oracle;
    EXPECT_EQ(s_ab.points_per_agent.count(2), 0u) << "oracle=" << oracle;
    ASSERT_TRUE(s_ba.sees(2)) << "oracle=" << oracle;
    EXPECT_EQ(s_ba.points_per_agent.count(1), 0u) << "oracle=" << oracle;
    // The winner's tally is order-independent.
    EXPECT_EQ(s_ab.points_per_agent.at(1), s_ba.points_per_agent.at(2))
        << "oracle=" << oracle;
  }
}

// Every config the scan cannot serve is refused at construction.
TEST(Lidar, InvalidConfigThrows) {
  const auto rejects = [](auto&& mutate) {
    LidarConfig cfg = small_lidar();
    mutate(cfg);
    EXPECT_THROW(LidarSensor{cfg}, ContractViolation);
  };
  rejects([](LidarConfig& c) { c.channels = 0; });
  rejects([](LidarConfig& c) { c.channels = -3; });
  rejects([](LidarConfig& c) { c.azimuth_step_deg = 0.0; });
  rejects([](LidarConfig& c) { c.azimuth_step_deg = -1.0; });
  rejects([](LidarConfig& c) {
    c.azimuth_step_deg = std::numeric_limits<double>::quiet_NaN();
  });
  // A step over 360 degrees leaves azimuth_count() == 0: no rays at all.
  rejects([](LidarConfig& c) { c.azimuth_step_deg = 361.0; });
  rejects([](LidarConfig& c) { c.azimuth_step_deg = 720.0; });
  rejects([](LidarConfig& c) { c.max_range = 0.0; });
  rejects([](LidarConfig& c) { c.max_range = -5.0; });
  rejects([](LidarConfig& c) {
    c.max_range = std::numeric_limits<double>::quiet_NaN();
  });
  // Vertical field of view: ordered and strictly inside (-90, 90) degrees.
  rejects([](LidarConfig& c) {
    c.vertical_fov_min_deg = 5.0;
    c.vertical_fov_max_deg = -5.0;
  });
  rejects([](LidarConfig& c) { c.vertical_fov_min_deg = -90.0; });
  rejects([](LidarConfig& c) { c.vertical_fov_max_deg = 90.0; });
  rejects([](LidarConfig& c) {
    c.vertical_fov_min_deg = -120.0;
    c.vertical_fov_max_deg = 120.0;
  });
  rejects([](LidarConfig& c) {
    c.vertical_fov_max_deg = std::numeric_limits<double>::quiet_NaN();
  });

  // The boundary values that are still valid construct and scan.
  LidarConfig edge = small_lidar();
  edge.azimuth_step_deg = 360.0;  // exactly one azimuth
  edge.vertical_fov_min_deg = -89.0;
  edge.vertical_fov_max_deg = 89.0;
  const LidarSensor one_ray(edge);
  EXPECT_EQ(one_ray.config().azimuth_count(), 1);
  std::mt19937_64 rng(3);
  EXPECT_LE(one_ray.scan(sensor_at({0.0, 0.0}), {}, rng).cloud.size(),
            edge.max_points());
  LidarConfig flat = small_lidar();
  flat.vertical_fov_min_deg = flat.vertical_fov_max_deg = 2.0;
  EXPECT_NO_THROW(LidarSensor{flat});
}

// SightOccluders (src) and the plain loop (oracle) on one occluder list.
bool culled_sight(Vec2 eye, Vec2 target, std::span<const Obb> occluders) {
  SightOccluders sight;
  sight.reset(eye);
  for (std::size_t k = 0; k < occluders.size(); ++k) sight.add(occluders[k], k);
  std::uint64_t ray_tests = 0;
  return sight.visible(target, occluders.size(), ray_tests);
}

TEST(LineOfSight, ClearAndBlocked) {
  const std::vector<Obb> occluders = {Obb{{5.0, 0.0}, 0.0, 2.0, 2.0}};
  for (const auto& los : {oracle_line_of_sight, culled_sight}) {
    EXPECT_FALSE(los({0.0, 0.0}, {10.0, 0.0}, occluders));
    EXPECT_TRUE(los({0.0, 0.0}, {10.0, 10.0}, occluders));
    EXPECT_TRUE(los({0.0, 0.0}, {10.0, 0.0}, std::span<const Obb>{}));
  }
}

TEST(LineOfSight, GrazingEdge) {
  const std::vector<Obb> occluders = {Obb{{5.0, 2.0}, 0.0, 2.0, 2.0}};
  for (const auto& los : {oracle_line_of_sight, culled_sight}) {
    // Segment passes just below the box (box spans y in [1, 3]).
    EXPECT_TRUE(los({0.0, 0.0}, {10.0, 0.5}, occluders));
    EXPECT_FALSE(los({0.0, 0.0}, {10.0, 4.0}, occluders));
  }
}

TEST(LineOfSight, SkippedTagAndCullCount) {
  SightOccluders sight;
  sight.reset({0.0, 0.0});
  sight.add(Obb{{5.0, 0.0}, 0.0, 2.0, 2.0}, 7);    // on the ray
  sight.add(Obb{{5.0, 40.0}, 0.0, 2.0, 2.0}, 8);   // far off it: culled
  std::uint64_t ray_tests = 0;
  EXPECT_FALSE(sight.visible({10.0, 0.0}, 8, ray_tests));
  EXPECT_EQ(ray_tests, 1u);
  EXPECT_TRUE(sight.visible({10.0, 0.0}, 7, ray_tests));
  EXPECT_EQ(ray_tests, 1u);  // the only box left is culled
}

// The bounding-circle cull is exact: over seeded random scenes, culled
// visibility equals the plain every-box loop bit for bit, including eyes
// inside or on an occluder, targets inside one, zero-length rays, rays
// through a corner and rays collinear with an edge.
TEST(LineOfSight, CulledEqualsPlainLoopOnRandomScenes) {
  std::mt19937_64 rng(0x51c47);
  std::uniform_real_distribution<double> coord(-30.0, 30.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> heading(-3.2, 3.2);
  std::uniform_int_distribution<int> count(0, 14);
  std::size_t blocked = 0;
  std::size_t compared = 0;
  for (int scene = 0; scene < 10000; ++scene) {
    std::vector<Obb> boxes;
    const int n = count(rng);
    for (int k = 0; k < n; ++k) {
      const bool building = unit(rng) < 0.1;
      boxes.emplace_back(Vec2{coord(rng), coord(rng)},
                         unit(rng) < 0.3 ? 0.0 : heading(rng),
                         building ? 8.0 + 12.0 * unit(rng) : 0.5 + 5.0 * unit(rng),
                         building ? 6.0 + 8.0 * unit(rng) : 0.5 + 2.0 * unit(rng));
    }
    // A point of box k: its center, a corner, an edge point, or inside it.
    const auto point_of = [&](const Obb& b) {
      const auto c = b.corners();
      switch (static_cast<int>(unit(rng) * 4.0)) {
        case 0: return b.center();
        case 1: return c[static_cast<std::size_t>(unit(rng) * 4.0) % 4];
        case 2: return geom::lerp(c[0], c[1], unit(rng));
        default: return geom::lerp(b.center(), c[2], unit(rng));
      }
    };
    Vec2 eye{coord(rng), coord(rng)};
    if (!boxes.empty() && unit(rng) < 0.25) {
      eye = point_of(boxes[static_cast<std::size_t>(unit(rng) * n) % boxes.size()]);
    }
    for (int q = 0; q < 8; ++q) {
      Vec2 target{coord(rng), coord(rng)};
      const double kind = unit(rng);
      if (!boxes.empty() && kind < 0.5) {
        const Obb& b = boxes[static_cast<std::size_t>(unit(rng) * n) % boxes.size()];
        const auto c = b.corners();
        if (kind < 0.15) {
          target = point_of(b);
        } else if (kind < 0.3) {
          // Through a corner exactly, stopping short of or past it.
          target = eye + (c[0] - eye) * (0.5 + unit(rng));
        } else if (kind < 0.4) {
          // Along an edge's line.
          eye = c[1] + (c[1] - c[0]) * unit(rng);
          target = c[0] + (c[0] - c[1]) * (unit(rng) - 0.5);
        } else {
          target = eye;  // zero-length ray
        }
      }
      const std::size_t skip =
          boxes.empty() || unit(rng) < 0.5
              ? boxes.size()
              : static_cast<std::size_t>(unit(rng) * n) % boxes.size();
      std::vector<Obb> plain;
      for (std::size_t k = 0; k < boxes.size(); ++k) {
        if (k != skip) plain.push_back(boxes[k]);
      }
      SightOccluders sight;
      sight.reset(eye);
      for (std::size_t k = 0; k < boxes.size(); ++k) sight.add(boxes[k], k);
      std::uint64_t ray_tests = 0;
      const bool want = oracle_line_of_sight(eye, target, plain);
      ASSERT_EQ(sight.visible(target, skip, ray_tests), want)
          << "scene " << scene << " query " << q;
      EXPECT_LE(ray_tests, plain.size());
      blocked += want ? 0 : 1;
      ++compared;
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(blocked, compared / 10);
  EXPECT_LT(blocked, compared * 9 / 10);
}

}  // namespace
}  // namespace erpd::sim
