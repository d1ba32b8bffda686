#pragma once
// DBSCAN (Ester et al., KDD'96) over 3-D points, grid-accelerated: the
// vehicle-side Moving Objects Extraction segments objects with it (paper
// §II-B), the edge re-segments EMP's merged uploads with it, and it is the
// pedestrian-clustering baseline of Fig. 4.
//
// Labels follow three rules, whatever order neighbours are visited in. With
// near(a, b) meaning (a - b).norm_sq() <= eps * eps:
//   1. a point is core iff at least min_pts points (itself included) are
//      near it;
//   2. near core points share a cluster, and a cluster's id is the rank of
//      its smallest core index among all clusters' smallest core indices;
//   3. a non-core point takes the lowest id among the core points near it,
//      or kNoise when there is none.
// tests/test_dbscan_equivalence.cpp pins them against a textbook BFS.

#include <array>
#include <cstdint>
#include <vector>

#include "pointcloud/pointcloud.hpp"

namespace erpd::pc {

struct DbscanConfig {
  /// Neighborhood radius (meters). eps * eps must be a normal double.
  double eps{0.8};
  /// Minimum neighborhood size (including the point itself) to be a core
  /// point.
  std::size_t min_pts{5};
};

/// Label for points not assigned to any cluster.
inline constexpr std::int32_t kNoise = -1;

struct DbscanResult {
  /// Per-point cluster id in [0, cluster_count) or kNoise.
  std::vector<std::int32_t> labels;
  std::int32_t cluster_count{0};
  /// Number of `norm_sq() <= eps * eps` comparisons the run made, cell
  /// bounding-box checks included. Deterministic: a host-independent measure
  /// of the clustering work.
  std::uint64_t distance_tests{0};
};

/// Working memory of dbscan(), kept by callers that cluster every frame so
/// its capacity is reused. It holds capacity only: a call overwrites
/// everything it reads, so which scratch is passed never changes a result.
struct DbscanScratch {
  /// Per-axis cell keys; later the counting sort's by-z order.
  std::array<std::vector<std::uint32_t>, 3> key;
  /// Counting-sort buckets, then the column table.
  std::vector<std::uint32_t> count;
  std::vector<std::uint32_t> order;  // by cell, ascending inside a cell
  std::vector<std::uint32_t> start;  // cell c: order[start[c] .. start[c+1])
  std::vector<std::uint32_t> cell_z;
  /// Class k neighbours of cell c, ascending:
  /// nbr[nbr_start[4c + k] .. nbr_start[4c + k + 1]).
  std::vector<std::uint32_t> nbr_start;
  std::vector<std::uint32_t> nbr;
  /// Rule state, per cell or per point.
  std::vector<std::uint8_t> compact;
  std::vector<std::uint32_t> first_core;
  std::vector<std::int32_t> low;
  std::vector<std::uint8_t> core;
  std::vector<std::uint32_t> parent;
};

DbscanResult dbscan(const PointCloud& cloud, const DbscanConfig& cfg);

/// The same, with `scratch` as working memory.
DbscanResult dbscan(const PointCloud& cloud, const DbscanConfig& cfg,
                    DbscanScratch& scratch);

/// A segmented object: the cluster's points plus summary geometry.
struct ObjectCluster {
  std::vector<std::size_t> indices;  // ascending
  geom::Vec3 centroid{};             // summed in index order
  geom::Aabb footprint;  // planar bounds
  std::size_t point_count() const { return indices.size(); }
};

/// Materialize per-cluster summaries from a DBSCAN labeling.
std::vector<ObjectCluster> extract_clusters(const PointCloud& cloud,
                                            const DbscanResult& result);

}  // namespace erpd::pc
