#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/rng.hpp"
#include "edge/edge_server.hpp"
#include "pointcloud/moving_extractor.hpp"
#include "pointcloud/voxel_grid.hpp"
#include "real_scans.hpp"
#include "voxel_oracle.hpp"

// Property suite for pc::voxel_downsample (pointcloud/voxel_grid.hpp): on
// 10k seeded clouds and on real scans its output must equal the reference
// kernel in voxel_oracle.hpp byte for byte, order included, whether a call
// allocates its own scratch, reuses one across clouds or writes in place.

namespace erpd::pc {
namespace {

using geom::Vec3;

/// Same points, same order, same bit patterns (-0.0 is not 0.0 here).
bool same_bytes(const PointCloud& a, const PointCloud& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.points().data(), b.points().data(),
                                   a.size() * sizeof(Vec3)) == 0);
}

struct VoxelCase {
  PointCloud cloud;
  double size{1.0};
};

/// Seeded random cloud: uniform scatter around the origin, lattices exactly
/// on voxel faces (and one ulp either side), signed zeros, dense voxels,
/// duplicates and spans far wider than 2^20 voxels; n = 0 and n = 1 turn up
/// too.
VoxelCase random_case(std::uint64_t seed) {
  std::mt19937_64 rng = core::seeded_rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * u01(rng);
  };
  const auto pick = [&](std::initializer_list<double> v) {
    const auto k = static_cast<std::size_t>(u01(rng) * v.size());
    return *(v.begin() + std::min(k, v.size() - 1));
  };
  VoxelCase out;
  // Dyadic sizes put lattice points exactly on faces; others round.
  out.size = u01(rng) < 0.5 ? pick({0.125, 0.25, 0.5, 1.0, 2.0})
                            : uniform(0.05, 1.5);
  const double size = out.size;
  const double r = u01(rng);
  const std::size_t target =
      r < 0.03   ? 0
      : r < 0.06 ? 1
                 : static_cast<std::size_t>(uniform(2.0, 400.0));
  const double span = pick({2.0, 20.0, 200.0});
  PointCloud& c = out.cloud;
  while (c.size() < target) {
    const double kind = u01(rng);
    if (kind < 0.25) {  // scatter, negative coordinates included
      c.push_back({uniform(-span, span), uniform(-span, span),
                   uniform(-span, span) * pick({0.05, 1.0})});
    } else if (kind < 0.45) {  // on a face, or one ulp off it
      const auto face = [&] {
        const double v = size * std::round(uniform(-8.0, 8.0));
        const double nudge = pick({0.0, 0.0, 1.0, -1.0});
        return nudge == 0.0 ? v : std::nextafter(v, nudge * 1e300);
      };
      c.push_back({face(), face(), face()});
    } else if (kind < 0.55) {  // signed zeros and their neighbours
      const auto zeroish = [&] {
        return pick({0.0, -0.0, -0.0, 4.9e-324, -4.9e-324, size, -size});
      };
      c.push_back({zeroish(), zeroish(), zeroish()});
    } else if (kind < 0.7) {  // one dense voxel
      const Vec3 at{size * std::floor(uniform(-span, span) / size),
                    size * std::floor(uniform(-span, span) / size), 0.0};
      const int m = 1 + static_cast<int>(uniform(0.0, 25.0));
      for (int i = 0; i < m; ++i) {
        c.push_back(at + Vec3{uniform(0.0, size), uniform(0.0, size),
                              uniform(0.0, size)});
      }
    } else if (kind < 0.85 && !c.empty()) {  // duplicates
      const int m = 1 + static_cast<int>(uniform(0.0, 10.0));
      for (int i = 0; i < m; ++i) {
        const auto k = static_cast<std::size_t>(u01(rng) * c.size());
        c.push_back(c[std::min(k, c.size() - 1)]);
      }
    } else {  // far out: spans of 10^7 to 10^13 voxels per axis
      const double far = pick({1e6, 1e9, 1e12});
      c.push_back({uniform(-far, far), uniform(-far, far),
                   uniform(-span, span)});
    }
  }
  c.points().resize(target);
  if (u01(rng) < 0.5) std::shuffle(c.points().begin(), c.points().end(), rng);
  return out;
}

class VoxelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VoxelEquivalence, MatchesOracleByteForByte) {
  constexpr std::uint64_t kCasesPerBlock = 1250;
  VoxelScratch scratch;
  PointCloud reused;
  for (std::uint64_t k = 0; k < kCasesPerBlock; ++k) {
    const std::uint64_t seed = core::seed_mix(0x40c5e1, GetParam(), k);
    const VoxelCase vc = random_case(seed);
    const PointCloud want = oracle_voxel_downsample(vc.cloud, vc.size);
    ASSERT_TRUE(same_bytes(voxel_downsample(vc.cloud, vc.size), want))
        << "case " << seed << " (" << vc.cloud.size() << " points, voxel "
        << vc.size << ")";
    voxel_downsample(vc.cloud, vc.size, reused, scratch);
    ASSERT_TRUE(same_bytes(reused, want))
        << "case " << seed << " with reused scratch";
    PointCloud in_place = vc.cloud;
    voxel_downsample(in_place, vc.size, in_place, scratch);
    ASSERT_TRUE(same_bytes(in_place, want)) << "case " << seed << " in place";
  }
}

// 8 blocks x 1250 cases = 10k randomized clouds.
INSTANTIATE_TEST_SUITE_P(Blocks, VoxelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(VoxelEquivalenceDirected, EmptyAndSinglePoint) {
  VoxelScratch scratch;
  PointCloud out{{{1.0, 2.0, 3.0}}};
  voxel_downsample(PointCloud{}, 0.5, out, scratch);
  EXPECT_TRUE(out.empty());
  const PointCloud one{{{-0.3, 7.0, 1e9}}};
  voxel_downsample(one, 0.5, out, scratch);
  EXPECT_TRUE(same_bytes(out, one));
  EXPECT_TRUE(same_bytes(out, oracle_voxel_downsample(one, 0.5)));
}

// Sums start from +0.0, so a voxel of negative zeros yields +0.0: the
// behaviour both kernels share and the byte comparison pins.
TEST(VoxelEquivalenceDirected, NegativeZeroSumsToPositiveZero) {
  const PointCloud c{{{-0.0, -0.0, -0.0}, {-0.0, -0.0, -0.0}}};
  const PointCloud d = voxel_downsample(c, 1.0);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_FALSE(std::signbit(d[0].x));
  EXPECT_TRUE(same_bytes(d, oracle_voxel_downsample(c, 1.0)));
}

TEST(VoxelEquivalenceDirected, InvalidVoxelSizeThrows) {
  VoxelScratch scratch;
  PointCloud out;
  EXPECT_THROW(voxel_downsample(PointCloud{}, 0.0, out, scratch),
               erpd::ContractViolation);
}

// Vehicle scans at the extractor's voxel size and the EMP edge's merged
// clouds at kDetectVoxel, through one reused scratch.
TEST(VoxelEquivalenceRealScans, MatchOracle) {
  const MovingExtractorConfig ex;
  struct Set {
    std::vector<PointCloud> clouds;
    double voxel;
  };
  std::vector<Set> sets;
  sets.push_back({real_clouds(real_scan_scene(32, 0.5), false), ex.voxel_size});
  sets.push_back({real_clouds(real_scan_scene(16, 1.0), false), ex.voxel_size});
  sets.push_back({real_clouds(real_scan_scene(32, 0.5), true),
                  edge::kDetectVoxel});
  VoxelScratch scratch;
  PointCloud out;
  std::size_t clouds = 0;
  for (const Set& s : sets) {
    for (const PointCloud& c : s.clouds) {
      ASSERT_GT(c.size(), 1000u);
      const PointCloud want = oracle_voxel_downsample(c, s.voxel);
      voxel_downsample(c, s.voxel, out, scratch);
      EXPECT_TRUE(same_bytes(out, want)) << "cloud " << clouds;
      EXPECT_TRUE(same_bytes(voxel_downsample(c, s.voxel), want))
          << "cloud " << clouds;
      ++clouds;
    }
  }
  EXPECT_GE(clouds, 9u);
}

}  // namespace
}  // namespace erpd::pc
