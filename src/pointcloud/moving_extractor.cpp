#include "pointcloud/moving_extractor.hpp"

#include <algorithm>
#include <limits>

namespace erpd::pc {

std::size_t ExtractionResult::total_points() const {
  std::size_t n = 0;
  for (const ExtractedObject& o : objects) n += o.point_count;
  return n;
}

PointCloud ExtractionResult::merged_world() const {
  PointCloud out;
  out.reserve(total_points());
  for (const ExtractedObject& o : objects) out.append(o.points_world);
  return out;
}

MovingObjectExtractor::MovingObjectExtractor(MovingExtractorConfig cfg)
    : cfg_(cfg) {}

void MovingObjectExtractor::reset() {
  tracked_.clear();
  last_t_.reset();
}

ExtractionResult MovingObjectExtractor::process(const PointCloud& sensor_frame,
                                                const geom::Pose& ego_pose,
                                                double t) {
  ExtractScratch scratch;
  return process(sensor_frame, ego_pose, t, scratch);
}

ExtractionResult MovingObjectExtractor::process(const PointCloud& sensor_frame,
                                                const geom::Pose& ego_pose,
                                                double t,
                                                ExtractScratch& scratch) {
  ExtractionResult res;
  res.stats.raw_points = sensor_frame.size();

  // Stage 1: ground removal by z-threshold.
  PointCloud& work = scratch.work;
  remove_ground(sensor_frame, cfg_.ground, work);
  res.stats.after_ground = work.size();

  // Optional voxel thinning keeps DBSCAN tractable on dense frames; object
  // identity is unaffected because clusters span many voxels.
  if (cfg_.voxel_size > 0.0) {
    voxel_downsample(work, cfg_.voxel_size, work, scratch.voxel);
  }
  res.stats.after_voxel = work.size();

  // Stage 2: segment objects.
  const DbscanResult seg = dbscan(work, cfg_.dbscan, scratch.dbscan);
  res.stats.dbscan_distance_tests = seg.distance_tests;
  std::vector<ObjectCluster> clusters = extract_clusters(work, seg);
  std::erase_if(clusters, [&](const ObjectCluster& c) {
    if (c.point_count() < cfg_.min_cluster_points) return true;
    const geom::Vec2 e = c.footprint.extent();
    return std::max(e.x, e.y) > cfg_.max_object_extent;
  });
  res.stats.clusters = clusters.size();

  // Stage 3: ego-motion compensation — bring cluster geometry to world frame.
  const geom::Mat4 t_lw = geom::Mat4::from_pose(ego_pose);
  const double dt = last_t_ ? std::max(t - *last_t_, 1e-6) : 0.0;

  // Only clusters tracked *before* this frame are match candidates; clusters
  // appended below (new objects) must not be matched within the same frame.
  const std::size_t n_prev = tracked_.size();
  std::vector<bool> matched_prev(n_prev, false);
  for (const ObjectCluster& c : clusters) {
    const geom::Vec3 cw = t_lw.transform_point(c.centroid);

    // Nearest unmatched previously-tracked cluster within the gate.
    std::size_t best = n_prev;
    double best_d = cfg_.match_radius;
    for (std::size_t i = 0; i < n_prev; ++i) {
      if (matched_prev[i]) continue;
      const double d = (tracked_[i].centroid_world - cw).norm();
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }

    bool moving = false;
    geom::Vec2 vel{};
    if (best < n_prev && dt > 0.0) {
      TrackedCluster& tc = tracked_[best];
      matched_prev[best] = true;
      tc.history.emplace_back(t, cw);
      // Keep only samples inside the sliding window.
      std::erase_if(tc.history, [&](const auto& e) {
        return e.first < t - cfg_.window;
      });
      // Displacement over the window, with a jitter floor: per-frame centroid
      // noise from LiDAR resampling must not read as motion.
      const auto& [t0, c0] = tc.history.front();
      const double span = t - t0;
      const geom::Vec2 disp = cw.xy() - c0.xy();
      if (span > 0.0) {
        const double threshold =
            std::max(cfg_.min_displacement, cfg_.min_speed * span);
        moving = disp.norm() >= threshold;
        vel = disp / span;
      }
      // Hysteresis: a confirmed-moving object pausing briefly (a pedestrian
      // at the curb) keeps uploading at half the displacement threshold.
      if (!moving && tc.confirmed_moving &&
          disp.norm() >= 0.5 * cfg_.min_displacement) {
        moving = true;
      }
      tc.centroid_world = cw;
      tc.last_seen = t;
      tc.missed = 0;
      tc.confirmed_moving = moving;
    } else {
      // New cluster: no motion evidence yet; conservatively not uploaded
      // until later frames establish displacement.
      TrackedCluster tc;
      tc.centroid_world = cw;
      tc.history.emplace_back(t, cw);
      tc.last_seen = t;
      tracked_.push_back(std::move(tc));
    }

    if (moving) {
      ExtractedObject obj;
      obj.points_world = work.subset(c.indices).transformed(t_lw);
      obj.centroid_world = cw;
      obj.velocity_world = vel;
      obj.point_count = c.indices.size();
      res.objects.push_back(std::move(obj));
    }
  }

  // Age out clusters that disappeared.
  for (std::size_t i = 0; i < n_prev; ++i) {
    if (!matched_prev[i]) ++tracked_[i].missed;
  }
  std::erase_if(tracked_, [&](const TrackedCluster& tc) {
    return tc.missed > cfg_.max_missed_frames;
  });

  res.stats.moving_clusters = res.objects.size();
  res.stats.moving_points = res.total_points();
  last_t_ = t;
  return res;
}

}  // namespace erpd::pc
