#include "edge/vehicle_client.hpp"

#include <cmath>
#include <limits>

#include "core/check.hpp"
#include "core/rng.hpp"
#include "obs/span.hpp"
#include "pointcloud/ground_filter.hpp"
#include "track/tracker.hpp"

namespace erpd::edge {

VehicleClient::VehicleClient(sim::AgentId vehicle, ClientConfig cfg)
    : vehicle_(vehicle), cfg_(cfg), extractor_(cfg.extractor) {
  ERPD_REQUIRE(cfg_.method != Method::kSingle,
               "VehicleClient: Single shares nothing");
}

void VehicleClient::reset_pipeline() {
  extractor_.reset();
  // The blackout also invalidated our redundancy state: the edge may have
  // pruned our keyframe bases and any cached coverage claim is stale.
  objects_.clear();
  feedback_.reset();
}

void VehicleClient::receive_feedback(const net::CoverageFeedback& fb) {
  if (!cfg_.redundancy.enabled) return;
  feedback_ = fb;
}

VehicleClient::TrackedObject& VehicleClient::match_object(
    const geom::Vec3& centroid, double t) {
  constexpr double kMatchRadius = 3.0;
  TrackedObject* best = nullptr;
  double best_d = kMatchRadius;
  for (TrackedObject& o : objects_) {
    if (o.matched) continue;
    const double d = distance(o.centroid.xy(), centroid.xy());
    if (d < best_d) {
      best_d = d;
      best = &o;
    }
  }
  if (best == nullptr) {
    TrackedObject fresh;
    fresh.object_seq = next_object_seq_++;
    objects_.push_back(fresh);
    best = &objects_.back();
  }
  best->matched = true;
  best->centroid = centroid;
  best->last_seen = t;
  return *best;
}

bool VehicleClient::region_suppressed(geom::Vec2 pos) const {
  if (!feedback_.has_value() || feedback_->regions.empty()) return false;
  // Nearest-site region lookup, first-lowest-index wins ties — the same
  // rule geom::VoronoiPartition uses, so client and edge agree on regions.
  std::size_t owner_idx = 0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < feedback_->regions.size(); ++i) {
    const double d = distance_sq(feedback_->regions[i].site, pos);
    if (d < best) {
      best = d;
      owner_idx = i;
    }
  }
  const net::CoverageRegion& r = feedback_->regions[owner_idx];
  // The designated observer down-samples its own region too: the coverage
  // EMA is self-regulating — once suppressed uploads (plus confirmed-track
  // weight) no longer sustain the confidence, it decays below the threshold
  // and full-rate uploads resume.
  return r.confidence >= kSuppressThreshold;
}

pc::PointCloud VehicleClient::suppress_points(const pc::PointCloud& pts,
                                              std::uint64_t frame_tag) const {
  if (pts.size() <= kKeepMinPoints) return pts;
  // Per-point Bernoulli keep draw: a pure hash of (suppression seed,
  // vehicle, upload seq, point index) — independent of thread count,
  // evaluation order and the host's hash seed.
  const std::uint64_t stream =
      core::seed_mix(kSuppressSeed, static_cast<std::uint64_t>(vehicle_),
                     frame_tag);
  pc::PointCloud kept;
  kept.reserve(static_cast<std::size_t>(
      static_cast<double>(pts.size()) * kKeepFraction) + kKeepMinPoints);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    core::SplitMix64 gen(core::seed_mix(stream, i));
    const double u = std::ldexp(static_cast<double>(gen() >> 11), -53);
    if (u < kKeepFraction) kept.push_back(pts[i]);
  }
  if (kept.size() >= kKeepMinPoints) return kept;
  // Floor: keep the first kKeepMinPoints points by index (deterministic).
  pc::PointCloud floor_kept;
  floor_kept.reserve(kKeepMinPoints);
  for (std::size_t i = 0; i < kKeepMinPoints; ++i) floor_kept.push_back(pts[i]);
  return floor_kept;
}

void VehicleClient::require_finite_pose(const geom::Pose& pose) {
  ERPD_REQUIRE(std::isfinite(pose.position.x) &&
                   std::isfinite(pose.position.y) &&
                   std::isfinite(pose.position.z) && std::isfinite(pose.yaw) &&
                   std::isfinite(pose.pitch) && std::isfinite(pose.roll),
               "VehicleClient: non-finite sensor pose at (", pose.position.x,
               ", ", pose.position.y, ", ", pose.position.z, ")");
}

sim::AgentId VehicleClient::match_truth(
    const std::vector<sim::AgentSnapshot>& truth, geom::Vec2 centroid,
    sim::AgentId self) {
  sim::AgentId best = sim::kInvalidAgent;
  double best_d = track::kTruthMatchRadius;
  for (const sim::AgentSnapshot& a : truth) {
    if (a.id == self || a.parked) continue;
    const double d = distance(a.position, centroid);
    if (d < best_d) {
      best_d = d;
      best = a.id;
    }
  }
  return best;
}

net::UploadFrame VehicleClient::make_upload(
    const sim::World& world, const geom::VoronoiPartition* voronoi,
    std::size_t voronoi_cell, ClientFrameStats* stats,
    const std::vector<sim::AgentSnapshot>* truth, ClientScratch* scratch) {
  net::UploadFrame frame;
  frame.vehicle = vehicle_;
  frame.timestamp = world.time();
  const sim::Vehicle* me = world.find_vehicle(vehicle_);
  if (me == nullptr) return frame;
  frame.pose = me->sensor_pose(world.network());
  require_finite_pose(frame.pose);

  // The sensor and the local extraction pipeline are timed separately:
  // stage.sense is the simulated LiDAR alone, stage.extract everything the
  // paper's on-vehicle pipeline does with the scan. sensing_points_per_sec
  // in the bench derives from the former, so extraction cost can never
  // masquerade as sensor cost (or vice versa).
  ClientScratch own;
  ClientScratch& sc = scratch != nullptr ? *scratch : own;
  obs::StageSpan sense_span(cfg_.metrics, "stage.sense");
  world.scan_from(vehicle_, sc.scan);
  const sim::LidarScan& scan = sc.scan;
  sense_span.stop();

  obs::StageSpan extract_span(cfg_.metrics, "stage.extract");

  switch (cfg_.method) {
    case Method::kOurs: {
      const pc::ExtractionResult ex =
          extractor_.process(scan.cloud, frame.pose, world.time(), sc.extract);
      if (stats != nullptr) {
        stats->dbscan_distance_tests = ex.stats.dbscan_distance_tests;
      }
      std::vector<sim::AgentSnapshot> local_truth;
      if (truth == nullptr && !ex.objects.empty()) {
        local_truth = world.snapshot();
        truth = &local_truth;
      }
      const bool red_on = cfg_.redundancy.enabled;
      bool feedback_fresh = false;
      if (red_on) {
        frame.upload_seq = next_upload_seq_++;
        for (TrackedObject& o : objects_) o.matched = false;
        feedback_fresh =
            feedback_.has_value() &&
            world.time() - feedback_->timestamp <= kMaxFeedbackAge;
      }
      std::size_t suppressed = 0;
      for (const pc::ExtractedObject& obj : ex.objects) {
        net::ObjectUpload up;
        up.object_granular = true;
        up.centroid_world = obj.centroid_world;
        up.velocity_world = obj.velocity_world;
        up.truth_id = match_truth(*truth, obj.centroid_world.xy(), vehicle_);
        if (!red_on) {
          up.point_count = obj.point_count;
          up.bytes = pc::encoded_size_bytes(obj.point_count);
          up.cloud_world = obj.points_world;
          frame.objects.push_back(std::move(up));
          continue;
        }
        // --- Redundancy-aware path (DESIGN.md §16) ---
        const std::size_t full_bytes = pc::encoded_size_bytes(obj.point_count);
        pc::PointCloud pts = obj.points_world;
        if (feedback_fresh && region_suppressed(obj.centroid_world.xy())) {
          pts = suppress_points(pts, frame.upload_seq);
        }
        TrackedObject& st = match_object(obj.centroid_world, world.time());
        up.object_seq = st.object_seq;
        // The ack tells us whether our current keyframe was admitted by the
        // edge. Only feedback issued *after* the keyframe was sent can
        // legitimately not ack it (otherwise the 1-frame ack lag would force
        // a spurious re-keyframe every frame).
        const bool base_missing =
            feedback_fresh && feedback_->has_ack &&
            feedback_->timestamp >= st.keyframe_time &&
            feedback_->last_admitted_upload_seq < st.keyframe_upload_seq;
        bool sent_delta = false;
        if (st.keyframe_upload_seq != 0 &&
            st.uploads_since_keyframe < kKeyframeInterval &&
            !base_missing) {
          const std::optional<pc::EncodedCloud> d =
              pc::encode_delta(pts, st.keyframe, cfg_.encoding);
          if (d.has_value()) {
            // The edge reconstructs from the quantized base; feed our own
            // reconstruction into cloud_world so both sides see the same
            // points (and the ingest guard's re-decode is a no-op change).
            pc::DecodeResult r = pc::try_decode_delta(*d, &st.keyframe);
            ERPD_ENSURE(r.status == pc::DecodeStatus::kOk,
                       "encode_delta produced an undecodable chunk: ",
                       pc::to_string(r.status));
            up.point_count = r.cloud.size();
            up.bytes = d->size_bytes();
            up.cloud_world = std::move(r.cloud);
            up.wire = *d;
            up.wire_present = true;
            up.is_delta = true;
            ++st.uploads_since_keyframe;
            sent_delta = true;
          }
        }
        if (!sent_delta) {
          pc::EncodedCloud kf = pc::encode(pts, cfg_.encoding);
          up.point_count = pts.size();
          up.bytes = kf.size_bytes();
          up.cloud_world = std::move(pts);
          up.wire = kf;
          up.wire_present = true;
          up.is_delta = false;
          st.keyframe = std::move(kf);
          st.keyframe_upload_seq = frame.upload_seq;
          st.keyframe_time = world.time();
          st.uploads_since_keyframe = 0;
        }
        suppressed += full_bytes > up.bytes ? full_bytes - up.bytes : 0;
        frame.objects.push_back(std::move(up));
      }
      if (red_on) {
        // Forget objects not re-extracted for a second: their keyframes are
        // useless as delta bases by then, and the edge prunes too.
        std::erase_if(objects_, [&](const TrackedObject& o) {
          return world.time() - o.last_seen > 1.0;
        });
        if (stats != nullptr) stats->suppressed_bytes = suppressed;
      }
      break;
    }
    case Method::kEmp: {
      // EMP: ground-removed cloud, cropped to this vehicle's Voronoi cell.
      // One pass: each point above the ground cutoff goes to the world frame
      // and is kept if it lies in the cell. The crop gathers in scratch and
      // the upload gets an exactly sized copy.
      const double cutoff = pc::ground_cutoff(cfg_.extractor.ground);
      const geom::Mat4 t_lw = geom::Mat4::from_pose(frame.pose);
      pc::PointCloud& cell = sc.cell;
      cell.clear();
      for (const geom::Vec3& p : scan.cloud.points()) {
        if (!(p.z > cutoff)) continue;
        const geom::Vec3 w = t_lw.transform_point(p);
        if (voronoi == nullptr || voronoi->in_cell(w.xy(), voronoi_cell)) {
          cell.push_back(w);
        }
      }
      net::ObjectUpload up;
      up.centroid_world = cell.centroid();
      up.point_count = cell.size();
      up.bytes = pc::encoded_size_bytes(cell.size());
      up.cloud_world = pc::PointCloud(std::vector<geom::Vec3>(cell.points()));
      frame.objects.push_back(std::move(up));
      break;
    }
    case Method::kUnlimited: {
      const geom::Mat4 t_lw = geom::Mat4::from_pose(frame.pose);
      net::ObjectUpload up;
      up.point_count = scan.cloud.size();
      // Raw sensor format, no quantized encoding.
      up.bytes = scan.cloud.raw_size_bytes();
      up.cloud_world = scan.cloud.transformed(t_lw);
      up.centroid_world = up.cloud_world.centroid();
      frame.objects.push_back(std::move(up));
      break;
    }
    case Method::kSingle:
      break;  // refused by the constructor
  }

  extract_span.stop();
  if (stats != nullptr) {
    stats->raw_points = scan.cloud.size();
    stats->uploaded_bytes = frame.total_bytes();
  }
  return frame;
}

}  // namespace erpd::edge
