#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "geom/angle.hpp"
#include "lidar_oracle.hpp"
#include "sim/lidar.hpp"

// Randomized equivalence suite for the LiDAR scan (DESIGN.md §14). The
// azimuth-interval index, SoA ray casting, hoisted tan table, binary-search
// channel resolution and NormalSampler noise path promise BIT-identical
// output to the serial textbook scan in lidar_oracle.hpp — not merely
// numerically-close output: the pipeline's behavior fingerprints and golden
// snapshots hash the cloud bytes. So every comparison below is on exact bit
// patterns, never EXPECT_NEAR.

namespace erpd::sim {
namespace {

using geom::Obb;
using geom::Pose;
using geom::Vec2;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_identical(const LidarScan& ref, const LidarScan& got,
                      std::uint64_t case_seed) {
  ASSERT_EQ(ref.cloud.size(), got.cloud.size()) << "case " << case_seed;
  for (std::size_t i = 0; i < ref.cloud.size(); ++i) {
    const geom::Vec3& a = ref.cloud[i];
    const geom::Vec3& b = got.cloud[i];
    ASSERT_TRUE(same_bits(a.x, b.x) && same_bits(a.y, b.y) &&
                same_bits(a.z, b.z))
        << "case " << case_seed << " point " << i << ": (" << a.x << ", "
        << a.y << ", " << a.z << ") vs (" << b.x << ", " << b.y << ", " << b.z
        << ")";
  }
  ASSERT_EQ(ref.ground_points, got.ground_points) << "case " << case_seed;
  ASSERT_EQ(ref.static_points, got.static_points) << "case " << case_seed;
  ASSERT_EQ(ref.points_per_agent.size(), got.points_per_agent.size())
      << "case " << case_seed;
  for (const auto& [id, n] : ref.points_per_agent) {
    const auto it = got.points_per_agent.find(id);
    ASSERT_NE(it, got.points_per_agent.end())
        << "case " << case_seed << " agent " << id;
    ASSERT_EQ(it->second, n) << "case " << case_seed << " agent " << id;
  }
}

LidarScan run_scan(const LidarSensor& lidar, const Pose& pose,
                   const std::vector<LidarTarget>& targets,
                   std::uint64_t seed) {
  std::mt19937_64 rng = core::seeded_rng(seed);
  return lidar.scan(pose, targets, rng);
}

LidarScan run_oracle(const LidarConfig& cfg, const Pose& pose,
                     const std::vector<LidarTarget>& targets,
                     std::uint64_t seed) {
  std::mt19937_64 rng = core::seeded_rng(seed);
  return oracle_scan(cfg, pose, targets, rng);
}

/// Seeded random scene: eye pose plus a target soup that deliberately covers
/// the index's hard cases — spans wrapping across +-pi, long walls whose
/// circumcircle swallows the eye (full-pi subtended span), boxes containing
/// the eye, boxes straddling or beyond max_range, degenerate thin boxes.
struct RandomCase {
  Pose pose;
  std::vector<LidarTarget> targets;
  LidarConfig cfg;
};

class LidarEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

RandomCase random_case(std::uint64_t case_seed) {
  std::mt19937_64 rng = core::seeded_rng(case_seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * u01(rng);
  };

  RandomCase out;
  out.cfg.channels = 8;
  out.cfg.azimuth_step_deg = 2.0;
  out.cfg.max_range = 50.0;
  // Mix noisy and noiseless sensors; noise exercises the NormalSampler
  // stream, noiseless the untouched-RNG contract.
  out.cfg.noise_sigma = u01(rng) < 0.8 ? 0.02 : 0.0;
  if (u01(rng) < 0.2) out.cfg.azimuth_step_deg = 0.9;  // finer bins
  if (u01(rng) < 0.2) out.cfg.channels = 17;

  out.pose.position = {{uniform(-40.0, 40.0), uniform(-40.0, 40.0)},
                       uniform(0.3, 3.0)};
  out.pose.yaw = uniform(-geom::kPi, geom::kPi);

  const int n_targets = 1 + static_cast<int>(uniform(0.0, 24.0));
  for (int i = 0; i < n_targets; ++i) {
    LidarTarget t;
    Vec2 center{uniform(-70.0, 70.0), uniform(-70.0, 70.0)};
    double length = uniform(0.3, 6.0);
    double width = uniform(0.3, 3.0);
    const double kind = u01(rng);
    if (kind < 0.2) {
      // Long wall: circumcircle frequently swallows the eye (full-pi span
      // in the oracle, corner-tight interval in the index).
      length = uniform(30.0, 70.0);
      width = uniform(0.5, 2.5);
    } else if (kind < 0.3) {
      // Box sitting on (or containing) the eye: t = 0 hits at every azimuth.
      center = out.pose.position.xy() + Vec2{uniform(-2.0, 2.0),
                                             uniform(-2.0, 2.0)};
      length = uniform(1.0, 8.0);
      width = uniform(1.0, 8.0);
    }
    t.footprint = Obb{center, uniform(-geom::kPi, geom::kPi), length, width};
    t.base_z = u01(rng) < 0.7 ? 0.0 : uniform(0.0, 2.0);
    t.height = uniform(0.4, 9.0);
    t.id = u01(rng) < 0.25 ? static_cast<AgentId>(-1 - i)
                           : static_cast<AgentId>(i);
    out.targets.push_back(t);
  }
  return out;
}

TEST_P(LidarEquivalence, ScanMatchesOracleBitExact) {
  const std::uint64_t block = GetParam();
  constexpr std::uint64_t kCasesPerBlock = 150;
  for (std::uint64_t k = 0; k < kCasesPerBlock; ++k) {
    const std::uint64_t case_seed = core::seed_mix(block, k);
    const RandomCase rc = random_case(case_seed);
    const LidarSensor lidar(rc.cfg);
    const LidarScan ref = run_oracle(rc.cfg, rc.pose, rc.targets, case_seed);
    const LidarScan got = run_scan(lidar, rc.pose, rc.targets, case_seed);
    expect_identical(ref, got, case_seed);
  }
}

// 8 blocks x 150 cases = 1200 randomized scenes.
INSTANTIATE_TEST_SUITE_P(Blocks, LidarEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The scan must stay worker-count independent as well as oracle-equivalent:
// same bits at 1, 2, and 8 workers.
TEST(LidarEquivalenceWorkers, ScanMatchesOracleAcrossWorkerCounts) {
  for (std::uint64_t k = 0; k < 40; ++k) {
    const std::uint64_t case_seed = core::seed_mix(0xa11, k);
    const RandomCase rc = random_case(case_seed);
    const LidarSensor lidar(rc.cfg);
    const LidarScan ref = run_oracle(rc.cfg, rc.pose, rc.targets, case_seed);
    for (const int workers : {1, 2, 8}) {
      core::set_thread_count(workers);
      const LidarScan got = run_scan(lidar, rc.pose, rc.targets, case_seed);
      expect_identical(ref, got, case_seed);
    }
  }
  core::set_thread_count(0);
}

// Directed wrap-around case: a wall dead astern straddles the +-pi azimuth
// seam, so its bin range wraps modulo n_az.
TEST(LidarEquivalenceDirected, WrapAroundSpan) {
  LidarConfig cfg;
  cfg.channels = 16;
  cfg.azimuth_step_deg = 1.0;
  cfg.noise_sigma = 0.02;
  const LidarSensor lidar(cfg);
  Pose pose;
  pose.position = {{0.0, 0.0}, 1.8};
  const std::vector<LidarTarget> targets = {
      {Obb{{-20.0, 0.0}, 0.0, 8.0, 6.0}, 0.0, 2.5, 1},   // dead astern
      {Obb{{-30.0, 0.5}, 0.3, 40.0, 2.0}, 0.0, 4.0, -2},  // wall across seam
  };
  const LidarScan ref = run_oracle(cfg, pose, targets, 77);
  const LidarScan got = run_scan(lidar, pose, targets, 77);
  expect_identical(ref, got, 77);
  EXPECT_TRUE(got.sees(1));
}

// Directed full-span case: eye inside a wall's circumcircle (the oracle
// probes it at every azimuth) and inside another box outright (t = 0 hits
// all around).
TEST(LidarEquivalenceDirected, EyeInsideCircumcircleAndBox) {
  LidarConfig cfg;
  cfg.channels = 16;
  cfg.azimuth_step_deg = 1.0;
  cfg.noise_sigma = 0.02;
  const LidarSensor lidar(cfg);
  Pose pose;
  pose.position = {{1.0, 1.5}, 1.8};
  const std::vector<LidarTarget> targets = {
      // 55 m wall: circumradius ~27.5 m, eye well inside the circumcircle.
      {Obb{{10.0, 5.0}, 0.1, 55.0, 2.0}, 0.0, 4.0, -1},
      // Box containing the eye.
      {Obb{{0.0, 0.0}, 0.7, 6.0, 6.0}, 0.0, 2.0, 2},
      {Obb{{15.0, -3.0}, 0.0, 4.5, 1.9}, 0.0, 1.6, 3},
  };
  const LidarScan ref = run_oracle(cfg, pose, targets, 78);
  const LidarScan got = run_scan(lidar, pose, targets, 78);
  expect_identical(ref, got, 78);
}

}  // namespace
}  // namespace erpd::sim
