#pragma once
// Moving Objects Extraction (paper §II-B).
//
// Runs on each vehicle: per LiDAR frame, remove ground points, segment the
// rest with DBSCAN, and compare cluster positions across consecutive frames
// (after ego-motion compensation into the world frame). Clusters whose
// centroid moved more than a displacement threshold are *moving* objects
// (vehicles, pedestrians) and their points are kept for upload; static
// clusters (buildings, parked vehicles) are discarded. This shrinks a 2-3 MB
// frame to tens of KB.

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/mat4.hpp"
#include "pointcloud/dbscan.hpp"
#include "pointcloud/ground_filter.hpp"
#include "pointcloud/pointcloud.hpp"
#include "pointcloud/voxel_grid.hpp"

namespace erpd::pc {

struct MovingExtractorConfig {
  GroundFilterConfig ground{};
  DbscanConfig dbscan{0.9, 4};
  /// Voxel size for pre-clustering downsampling; 0 disables.
  double voxel_size{0.25};
  /// Maximum world-frame centroid distance for matching a cluster to one seen
  /// in the previous frame (meters).
  double match_radius{3.0};
  /// Minimum world-frame speed (m/s) for a cluster to count as moving.
  double min_speed{0.4};
  /// Jitter floor: centroid displacement below this (meters, over the
  /// observation window) is indistinguishable from sampling noise.
  double min_displacement{0.6};
  /// Sliding window (seconds) over which displacement is measured.
  double window{1.0};
  /// Clusters smaller than this are sensor noise and dropped.
  std::size_t min_cluster_points{4};
  /// Clusters with a planar extent beyond this are infrastructure (walls,
  /// building faces): their visible portion grows as the sensor moves, which
  /// naive frame differencing would misread as motion. Never uploaded.
  double max_object_extent{12.0};
  /// How many frames a cluster may be unmatched before it is forgotten.
  int max_missed_frames{3};
};

/// One extracted moving object, in world coordinates.
struct ExtractedObject {
  PointCloud points_world;
  geom::Vec3 centroid_world{};
  geom::Vec2 velocity_world{};  // estimated from the centroid displacement
  std::size_t point_count{0};
};

struct ExtractionStats {
  std::size_t raw_points{0};
  std::size_t after_ground{0};
  std::size_t after_voxel{0};
  std::size_t clusters{0};
  std::size_t moving_clusters{0};
  std::size_t moving_points{0};
  /// DbscanResult::distance_tests of this frame's clustering.
  std::uint64_t dbscan_distance_tests{0};
};

struct ExtractionResult {
  std::vector<ExtractedObject> objects;
  ExtractionStats stats;

  /// Total moving points across objects.
  std::size_t total_points() const;
  /// All moving points merged into one world-frame cloud.
  PointCloud merged_world() const;
};

/// Working memory of MovingObjectExtractor::process: the cloud being
/// worked on (ground-removed, then voxel-thinned in place) and the kernels'
/// scratch. Capacity only, like the scratch types it holds, so any frame of
/// any vehicle may reuse one.
struct ExtractScratch {
  PointCloud work;
  VoxelScratch voxel;
  DbscanScratch dbscan;
};

/// Stateful per-vehicle extractor; feed frames in timestamp order.
class MovingObjectExtractor {
 public:
  explicit MovingObjectExtractor(MovingExtractorConfig cfg = {});

  /// Process one sensor-frame cloud captured at `ego_pose` and time `t` (s).
  ExtractionResult process(const PointCloud& sensor_frame,
                           const geom::Pose& ego_pose, double t);
  /// The same, with `scratch` as working memory.
  ExtractionResult process(const PointCloud& sensor_frame,
                           const geom::Pose& ego_pose, double t,
                           ExtractScratch& scratch);

  void reset();

 private:
  struct TrackedCluster {
    geom::Vec3 centroid_world{};
    /// Recent (time, world centroid) samples within the sliding window.
    std::vector<std::pair<double, geom::Vec3>> history;
    double last_seen{0.0};
    int missed{0};
    bool confirmed_moving{false};
  };

  MovingExtractorConfig cfg_;
  std::vector<TrackedCluster> tracked_;
  std::optional<double> last_t_;
};

}  // namespace erpd::pc
