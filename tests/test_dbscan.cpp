#include <gtest/gtest.h>

#include "core/check.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "pointcloud/dbscan.hpp"

namespace erpd::pc {
namespace {

PointCloud blob(geom::Vec2 center, int n, double spread, std::mt19937_64& rng) {
  std::normal_distribution<double> g(0.0, spread);
  PointCloud out;
  for (int i = 0; i < n; ++i) {
    out.push_back({center.x + g(rng), center.y + g(rng), 0.5 + 0.1 * g(rng)});
  }
  return out;
}

TEST(Dbscan, TwoWellSeparatedBlobs) {
  std::mt19937_64 rng(1);
  PointCloud c = blob({0, 0}, 40, 0.2, rng);
  c.append(blob({10, 10}, 40, 0.2, rng));
  const DbscanResult r = dbscan(c, {0.8, 5});
  EXPECT_EQ(r.cluster_count, 2);
  // All points clustered, none noise.
  for (auto l : r.labels) EXPECT_NE(l, kNoise);
  // Points of the same blob share a label.
  for (int i = 1; i < 40; ++i) EXPECT_EQ(r.labels[i], r.labels[0]);
  for (int i = 41; i < 80; ++i) EXPECT_EQ(r.labels[i], r.labels[40]);
  EXPECT_NE(r.labels[0], r.labels[40]);
}

TEST(Dbscan, IsolatedPointIsNoise) {
  std::mt19937_64 rng(2);
  PointCloud c = blob({0, 0}, 30, 0.2, rng);
  c.push_back({50.0, 50.0, 0.5});
  const DbscanResult r = dbscan(c, {0.8, 5});
  EXPECT_EQ(r.cluster_count, 1);
  EXPECT_EQ(r.labels.back(), kNoise);
}

TEST(Dbscan, SparseRingBelowMinPtsAllNoise) {
  PointCloud c;
  for (int i = 0; i < 10; ++i) {
    c.push_back({i * 10.0, 0.0, 0.0});
  }
  const DbscanResult r = dbscan(c, {0.5, 3});
  EXPECT_EQ(r.cluster_count, 0);
  for (auto l : r.labels) EXPECT_EQ(l, kNoise);
}

TEST(Dbscan, ChainConnectivity) {
  // A line of points spaced within eps forms a single cluster even though
  // the ends are far apart (density reachability).
  PointCloud c;
  for (int i = 0; i < 50; ++i) c.push_back({i * 0.4, 0.0, 0.0});
  const DbscanResult r = dbscan(c, {0.5, 3});
  EXPECT_EQ(r.cluster_count, 1);
  for (auto l : r.labels) EXPECT_EQ(l, 0);
}

TEST(Dbscan, EmptyCloud) {
  const DbscanResult r = dbscan(PointCloud{}, {0.5, 3});
  EXPECT_EQ(r.cluster_count, 0);
  EXPECT_TRUE(r.labels.empty());
}

TEST(Dbscan, InvalidConfigThrows) {
  EXPECT_THROW(dbscan(PointCloud{}, {0.0, 3}), erpd::ContractViolation);
  EXPECT_THROW(dbscan(PointCloud{}, {0.5, 0}), erpd::ContractViolation);
  // eps * eps must be a normal double: no underflow, no overflow.
  EXPECT_THROW(dbscan(PointCloud{}, {1e-200, 3}), erpd::ContractViolation);
  EXPECT_THROW(dbscan(PointCloud{}, {1e200, 3}), erpd::ContractViolation);
  const PointCloud nan{{{0.0, 0.0, 0.0}, {std::nan(""), 0.0, 0.0}}};
  EXPECT_THROW(dbscan(nan, {0.5, 3}), erpd::ContractViolation);
}

TEST(Dbscan, ClusterIndicesMatchLabels) {
  std::mt19937_64 rng(3);
  PointCloud c = blob({0, 0}, 20, 0.2, rng);
  c.append(blob({8, 0}, 25, 0.2, rng));
  const DbscanResult r = dbscan(c, {0.8, 4});
  ASSERT_EQ(r.cluster_count, 2);
  const std::vector<ObjectCluster> clusters = extract_clusters(c, r);
  ASSERT_EQ(clusters.size(), 2u);
  const auto& c0 = clusters[0].indices;
  const auto& c1 = clusters[1].indices;
  EXPECT_EQ(c0.size() + c1.size(), c.size());
  EXPECT_TRUE(std::is_sorted(c0.begin(), c0.end()));
  EXPECT_TRUE(std::is_sorted(c1.begin(), c1.end()));
  for (std::size_t i : c0) EXPECT_EQ(r.labels[i], 0);
  for (std::size_t i : c1) EXPECT_EQ(r.labels[i], 1);
}

TEST(Dbscan, ExtractClustersSummaries) {
  std::mt19937_64 rng(4);
  PointCloud c = blob({5, 5}, 30, 0.15, rng);
  const DbscanResult r = dbscan(c, {0.8, 4});
  ASSERT_EQ(r.cluster_count, 1);
  const auto clusters = extract_clusters(c, r);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].point_count(), 30u);
  EXPECT_NEAR(clusters[0].centroid.x, 5.0, 0.2);
  EXPECT_NEAR(clusters[0].centroid.y, 5.0, 0.2);
  EXPECT_TRUE(clusters[0].footprint.contains({5.0, 5.0}));
}

class DbscanDensityInvariant : public ::testing::TestWithParam<int> {};

TEST_P(DbscanDensityInvariant, EveryClusterMemberNearAnotherMember) {
  // Invariant: every clustered point has at least one cluster-mate within
  // eps (border points attach to a core point).
  std::mt19937_64 rng(GetParam());
  PointCloud c = blob({0, 0}, 50, 0.4, rng);
  c.append(blob({6, 2}, 35, 0.3, rng));
  c.append(blob({-5, 7}, 20, 0.5, rng));
  const DbscanConfig cfg{0.9, 4};
  const DbscanResult r = dbscan(c, cfg);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (r.labels[i] == kNoise) continue;
    bool has_mate = false;
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (j == i || r.labels[j] != r.labels[i]) continue;
      if (distance(c[i], c[j]) <= cfg.eps) {
        has_mate = true;
        break;
      }
    }
    EXPECT_TRUE(has_mate) << "point " << i << " stranded in cluster";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbscanDensityInvariant,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace erpd::pc
