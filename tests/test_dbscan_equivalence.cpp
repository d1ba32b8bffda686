#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "edge/edge_server.hpp"
#include "pointcloud/dbscan.hpp"
#include "pointcloud/ground_filter.hpp"
#include "pointcloud/moving_extractor.hpp"
#include "pointcloud/voxel_grid.hpp"
#include "real_scans.hpp"

// Equivalence suite for the grid DBSCAN kernel (pointcloud/dbscan.hpp): its
// labels must equal, bit for bit, those of the textbook algorithm below, a
// BFS over an O(n^2) neighbour scan that shares no code with the kernel.
// Random clouds cover the hard cases (exact-eps ties, duplicates, single
// dense cells, empty clouds, coordinates up to 1e15 m and axes too wide for
// relative keys); real scans pin the work tally too.

namespace erpd::pc {
namespace {

using geom::Vec3;

/// Ester et al.'s DBSCAN with brute-force region queries: clusters grow in
/// index order of their first core point, and a border point joins the
/// first cluster that reaches it.
std::vector<std::int32_t> reference_labels(const PointCloud& cloud,
                                           const DbscanConfig& cfg) {
  const std::size_t n = cloud.size();
  const double eps2 = cfg.eps * cfg.eps;
  const auto region = [&](std::size_t i) {
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < n; ++j) {
      if ((cloud[j] - cloud[i]).norm_sq() <= eps2) out.push_back(j);
    }
    return out;
  };
  std::vector<std::int32_t> labels(n, kNoise);
  std::vector<bool> visited(n, false);
  std::int32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (visited[i]) continue;
    visited[i] = true;
    const std::vector<std::size_t> seeds = region(i);
    if (seeds.size() < cfg.min_pts) continue;
    const std::int32_t id = next++;
    labels[i] = id;
    std::deque<std::size_t> queue(seeds.begin(), seeds.end());
    while (!queue.empty()) {
      const std::size_t j = queue.front();
      queue.pop_front();
      if (labels[j] == kNoise) labels[j] = id;
      if (visited[j]) continue;
      visited[j] = true;
      const std::vector<std::size_t> more = region(j);
      if (more.size() >= cfg.min_pts) {
        queue.insert(queue.end(), more.begin(), more.end());
      }
    }
  }
  return labels;
}

void expect_equivalent(const PointCloud& cloud, const DbscanConfig& cfg,
                       const std::string& what) {
  const std::vector<std::int32_t> want = reference_labels(cloud, cfg);
  const DbscanResult got = dbscan(cloud, cfg);
  ASSERT_EQ(got.labels.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.labels[i], want[i])
        << what << " point " << i << " of " << want.size() << " (eps "
        << cfg.eps << ", min_pts " << cfg.min_pts << ")";
  }
  const std::int32_t count =
      want.empty() ? 0 : *std::max_element(want.begin(), want.end()) + 1;
  ASSERT_EQ(got.cluster_count, count) << what;
}

/// Seeded random cloud: a mix of Gaussian blobs, exact-eps lattices, single
/// dense cells, duplicates and uniform scatter, optionally shuffled, moved
/// far from the origin, or joined by outliers that blow up the box.
struct RandomCase {
  PointCloud cloud;
  DbscanConfig cfg;
};

RandomCase random_case(std::uint64_t seed) {
  std::mt19937_64 rng = core::seeded_rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * u01(rng);
  };
  const auto pick = [&](std::initializer_list<double> v) {
    const auto k = static_cast<std::size_t>(u01(rng) * v.size());
    return *(v.begin() + std::min(k, v.size() - 1));
  };
  RandomCase out;
  // Dyadic eps makes lattice spacings, and so the ties, exact.
  out.cfg.eps =
      u01(rng) < 0.4 ? pick({0.25, 0.5, 0.75, 1.0, 1.25}) : uniform(0.2, 1.4);
  out.cfg.min_pts = 1 + static_cast<std::size_t>(u01(rng) * 8);
  const double eps = out.cfg.eps;
  const double span = uniform(1.0, 25.0);
  const auto anywhere = [&] {
    return Vec3{uniform(-span, span), uniform(-span, span),
                uniform(-span, span) * pick({0.05, 1.0})};
  };
  PointCloud& c = out.cloud;
  const std::size_t target = static_cast<std::size_t>(uniform(0.0, 260.0));
  if (u01(rng) < 0.03) return out;  // empty cloud
  while (c.size() < target) {
    const double kind = u01(rng);
    if (kind < 0.35) {  // Gaussian blob
      std::normal_distribution<double> g(0.0, uniform(0.1, 1.2) * eps);
      const Vec3 at = anywhere();
      const int m = 1 + static_cast<int>(uniform(0.0, 40.0));
      for (int i = 0; i < m; ++i) {
        c.push_back(at + Vec3{g(rng), g(rng), g(rng)});
      }
    } else if (kind < 0.55) {  // lattice: neighbours exactly eps, eps/2 apart
      const double step = eps * pick({0.5, 1.0, 1.0, 2.0});
      const Vec3 at{std::round(uniform(-span, span)),
                    std::round(uniform(-span, span)), 0.0};
      const int nx = 1 + static_cast<int>(uniform(0.0, 6.0));
      const int ny = 1 + static_cast<int>(uniform(0.0, 6.0));
      const int nz = 1 + static_cast<int>(uniform(0.0, 3.0));
      for (int x = 0; x < nx; ++x) {
        for (int y = 0; y < ny; ++y) {
          for (int z = 0; z < nz; ++z) {
            c.push_back(at + Vec3{x * step, y * step, z * step});
          }
        }
      }
    } else if (kind < 0.7) {  // one dense cell
      const Vec3 at = anywhere();
      const double w = uniform(0.01, 0.55) * eps;
      const int m = 1 + static_cast<int>(uniform(0.0, 20.0));
      for (int i = 0; i < m; ++i) {
        c.push_back(at + Vec3{uniform(0, w), uniform(0, w), uniform(0, w)});
      }
    } else if (kind < 0.85 && !c.empty()) {  // duplicates
      const int m = 1 + static_cast<int>(uniform(0.0, 10.0));
      for (int i = 0; i < m; ++i) {
        const auto k = static_cast<std::size_t>(u01(rng) * c.size());
        c.push_back(c[std::min(k, c.size() - 1)]);
      }
    } else {  // scatter
      const int m = 1 + static_cast<int>(uniform(0.0, 30.0));
      for (int i = 0; i < m; ++i) c.push_back(anywhere());
    }
  }
  if (u01(rng) < 0.5) std::shuffle(c.points().begin(), c.points().end(), rng);
  if (u01(rng) < 0.15) {  // far from the origin: coarse absolute spacing
    const Vec3 shift{pick({1e15, -1e15, 3e12, -7e9}), pick({1e15, -2e14, 0.0}),
                     pick({0.0, 1e15})};
    for (Vec3& p : c.points()) p = p + shift;
  }
  if (u01(rng) < 0.15) {  // outliers: axes too wide for relative keys
    const int m = 1 + static_cast<int>(uniform(0.0, 3.0));
    for (int i = 0; i < m; ++i) {
      const Vec3 far{pick({1e15, -1e15, 4e7}), pick({1e15, -1e15, 0.0}),
                     pick({0.0, -1e15})};
      const std::size_t at = static_cast<std::size_t>(u01(rng) * c.size());
      c.points().insert(c.points().begin() + static_cast<long>(at), far);
    }
  }
  return out;
}

class DbscanEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbscanEquivalence, LabelsMatchTextbookBfs) {
  constexpr std::uint64_t kCasesPerBlock = 150;
  for (std::uint64_t k = 0; k < kCasesPerBlock; ++k) {
    const std::uint64_t seed = core::seed_mix(0xdb5c, GetParam(), k);
    const RandomCase rc = random_case(seed);
    expect_equivalent(rc.cloud, rc.cfg, "case " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

// 8 blocks x 150 cases = 1200 randomized clouds.
INSTANTIATE_TEST_SUITE_P(Blocks, DbscanEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

PointCloud blobs(std::uint64_t seed) {
  std::mt19937_64 rng = core::seeded_rng(seed);
  std::uniform_real_distribution<double> u(-30.0, 30.0);
  std::normal_distribution<double> g(0.0, 0.3);
  PointCloud c;
  for (int b = 0; b < 12; ++b) {
    const Vec3 at{u(rng), u(rng), 0.5};
    for (int i = 0; i < 40; ++i) {
      c.push_back(at + Vec3{g(rng), g(rng), g(rng)});
    }
  }
  for (int i = 0; i < 200; ++i) {
    c.push_back({u(rng), u(rng), 0.5 + 0.01 * u(rng)});
  }
  return c;
}

// One far outlier (noise, last index) switches its axes to segment keys;
// every other label must stay as the relative keys gave it.
TEST(DbscanEquivalenceDirected, FarOutlierKeepsLabels) {
  const PointCloud c = blobs(321);
  const DbscanConfig cfg{0.8, 4};
  const DbscanResult near = dbscan(c, cfg);
  ASSERT_GT(near.cluster_count, 5);
  for (const Vec3 far : {Vec3{1e7, 1e7, 1e7}, Vec3{0.0, -1e15, 0.0},
                         Vec3{1e308, -1e308, 1e308}}) {
    PointCloud wide = c;
    wide.push_back(far);
    const DbscanResult r = dbscan(wide, cfg);
    ASSERT_EQ(r.labels.back(), kNoise);
    EXPECT_EQ(std::vector<std::int32_t>(r.labels.begin(), r.labels.end() - 1),
              near.labels);
    EXPECT_EQ(r.cluster_count, near.cluster_count);
    expect_equivalent(wide, cfg, "outlier");
  }
}

// Chains that span 1.5 km on x and y without a gap: relative keys, but a
// box of 10^7 columns, so cells merge 4 keys per axis and lose compactness.
TEST(DbscanEquivalenceDirected, WideBoxMergesCells) {
  PointCloud c = blobs(99);
  for (int i = 0; i < 2100; ++i) {
    c.push_back({0.7 * i, 0.0, 0.5});
    c.push_back({-3.0, 0.7 * i, 0.5 + 0.01 * (i % 7)});
  }
  for (int i = 0; i < 300; ++i) c.push_back({5.0 * i, 5.0 * i, 0.5});
  expect_equivalent(c, {0.8, 3}, "wide box");
}

// Extremes of the finite range: extents that overflow to infinity, and
// clusters sitting next to them.
TEST(DbscanEquivalenceDirected, ExtremeFiniteCoordinates) {
  PointCloud c;
  for (const double x : {-1.7e308, -1e15, 0.0, 1e15, 1.7e308}) {
    for (int i = 0; i < 5; ++i) c.push_back({x, 0.25 * i, x});
  }
  c.push_back({1.7e308, 1.7e308, -1.7e308});
  expect_equivalent(c, {0.5, 3}, "extremes");
  const DbscanResult r = dbscan(c, {0.5, 3});
  // Only y varies inside a group, in exact 0.25 m steps: five clusters.
  EXPECT_EQ(r.cluster_count, 5);
}

// Counted from the origin point, the column at x = 2^32 cells would wrap a
// 32-bit key in the middle of the cluster; keys must not.
TEST(DbscanEquivalenceDirected, KeysDoNotWrap) {
  const double wrap = 4294967296.0 * (0.5 / std::sqrt(3.0));
  PointCloud c{{{0.0, 0.0, 0.0}}};
  for (int i = -3; i <= 3; ++i) c.push_back({wrap + 0.2 * i, 0.0, 0.0});
  expect_equivalent(c, {0.5, 3}, "wrap");
  EXPECT_EQ(dbscan(c, {0.5, 3}).cluster_count, 1);
}

// ---------------------------------------------------------------------------
// Real scans: voxelized vehicle scans of a dense and a coarse scene, and the
// edge's EMP merge clouds. Besides the labels, the kernel's work tally must
// stay within 12 distance tests per point (the old BFS made 38.5-80 here).
// ---------------------------------------------------------------------------

void expect_real_equivalent(const std::vector<PointCloud>& clouds,
                            double voxel, const DbscanConfig& cfg,
                            const std::string& what) {
  ASSERT_FALSE(clouds.empty()) << what;
  std::uint64_t tests = 0;
  std::uint64_t points = 0;
  for (std::size_t k = 0; k < clouds.size(); ++k) {
    const PointCloud thin = voxel_downsample(clouds[k], voxel);
    ASSERT_GT(thin.size(), 100u) << what << " cloud " << k;
    expect_equivalent(thin, cfg, what + " cloud " + std::to_string(k));
    tests += dbscan(thin, cfg).distance_tests;
    points += thin.size();
  }
  const double per_point =
      static_cast<double>(tests) / static_cast<double>(points);
  std::printf("%s: %zu clouds, %llu points, %.2f distance tests per point\n",
              what.c_str(), clouds.size(),
              static_cast<unsigned long long>(points), per_point);
  EXPECT_LE(per_point, 12.0) << what;
}

TEST(DbscanEquivalenceRealScans, DenseScene) {
  const MovingExtractorConfig ex;
  expect_real_equivalent(real_clouds(real_scan_scene(32, 0.5), false),
                         ex.voxel_size, ex.dbscan, "dense 32ch x 0.5deg");
}

TEST(DbscanEquivalenceRealScans, CoarseScene) {
  const MovingExtractorConfig ex;
  expect_real_equivalent(real_clouds(real_scan_scene(16, 1.0), false),
                         ex.voxel_size, ex.dbscan, "coarse 16ch x 1deg");
}

TEST(DbscanEquivalenceRealScans, EmpMergeClouds) {
  expect_real_equivalent(real_clouds(real_scan_scene(32, 0.5), true),
                         edge::kDetectVoxel, edge::kDetectDbscan, "EMP merge");
}

// Top-level dbscan calls (the EMP edge's) run outside any parallel region.
// Labels, cluster_count and distance_tests must not depend on the worker
// count, nor on the scratch a call reuses: one scratch serves every cloud
// and width here, each result checked against a fresh 1-worker call.
TEST(DbscanEquivalenceRealScans, SameResultAtEveryWorkerCount) {
  struct Set {
    std::vector<PointCloud> clouds;
    double voxel;
    DbscanConfig cfg;
  };
  const MovingExtractorConfig ex;
  std::vector<Set> sets;
  sets.push_back({real_clouds(real_scan_scene(32, 0.5), false), ex.voxel_size,
                  ex.dbscan});
  sets.push_back({real_clouds(real_scan_scene(16, 1.0), false), ex.voxel_size,
                  ex.dbscan});
  sets.push_back({real_clouds(real_scan_scene(32, 0.5), true),
                  edge::kDetectVoxel, edge::kDetectDbscan});
  const std::size_t restore = core::thread_count();
  std::vector<DbscanResult> want;
  core::set_thread_count(1);
  for (const Set& s : sets) {
    for (const PointCloud& c : s.clouds) {
      want.push_back(dbscan(voxel_downsample(c, s.voxel), s.cfg));
    }
  }
  DbscanScratch scratch;
  for (const std::size_t workers : {1, 2, 8}) {
    core::set_thread_count(workers);
    std::size_t k = 0;
    for (const Set& s : sets) {
      for (const PointCloud& c : s.clouds) {
        const DbscanResult got =
            dbscan(voxel_downsample(c, s.voxel), s.cfg, scratch);
        const std::string what =
            std::to_string(workers) + " workers, cloud " + std::to_string(k);
        EXPECT_EQ(got.labels, want[k].labels) << what;
        EXPECT_EQ(got.cluster_count, want[k].cluster_count) << what;
        EXPECT_EQ(got.distance_tests, want[k].distance_tests) << what;
        ++k;
      }
    }
  }
  core::set_thread_count(restore);
}

}  // namespace
}  // namespace erpd::pc
