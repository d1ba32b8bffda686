#include "edge/edge_server.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "core/thread_pool.hpp"
#include "obs/span.hpp"
#include "pointcloud/encoding.hpp"

namespace erpd::edge {

using geom::Vec2;

AdmissionPolicy point_budget_policy(const IngestConfig& ingest) {
  return {.capacity = ingest.point_budget_per_frame, .cost_per_point = 1};
}

AdmissionPolicy deadline_policy(const ServiceConfig& service) {
  return {.capacity = service.decode_merge_budget_us * 1000ull,
          .cost_per_point = kCostPerPointNs,
          .cost_per_object = kCostPerObjectNs,
          .defer_capacity = kDeferCapacity,
          .max_defer_frames = kMaxDeferFrames};
}

EdgeServer::EdgeServer(const sim::RoadNetwork& net, EdgeConfig cfg)
    : net_(net),
      cfg_(cfg),
      guard_(cfg.ingest),
      point_stage_(point_budget_policy(cfg.ingest)),
      admission_(deadline_policy(cfg.service)),
      tracker_(cfg.tracker),
      rules_(net, cfg.predictor),
      predictor_(net, cfg.predictor),
      blob_scratch_(core::borrow_scratch<BlobScratch>()) {
  cfg_.wireless.validate();
  ERPD_REQUIRE(cfg_.staleness_decay >= 0.0 && cfg_.staleness_decay < 1.0,
               "EdgeServer: staleness_decay must be in [0,1), got ",
               cfg_.staleness_decay);
}

sim::AgentKind EdgeServer::classify_extent(const geom::Aabb& box) {
  if (box.empty()) return sim::AgentKind::kPedestrian;
  const Vec2 e = box.extent();
  return std::max(e.x, e.y) < 1.4 ? sim::AgentKind::kPedestrian
                                  : sim::AgentKind::kCar;
}

sim::AgentId EdgeServer::match_truth(
    const std::vector<sim::AgentSnapshot>& truth, Vec2 pos, double radius) {
  sim::AgentId best = sim::kInvalidAgent;
  double best_d = radius;
  for (const sim::AgentSnapshot& a : truth) {
    const double d = distance(a.position, pos);
    if (d < best_d) {
      best_d = d;
      best = a.id;
    }
  }
  return best;
}

std::vector<track::Detection> EdgeServer::build_detections(
    const std::vector<net::UploadFrame>& uploads,
    const std::vector<sim::AgentSnapshot>* truth,
    std::uint64_t* dbscan_distance_tests) {
  std::vector<track::Detection> out;

  // Object-granular uploads (Ours) become detections directly; blob uploads
  // (EMP cells / raw frames) are merged and segmented server-side.
  std::vector<const pc::PointCloud*> blobs;
  for (const net::UploadFrame& frame : uploads) {
    for (const net::ObjectUpload& obj : frame.objects) {
      if (obj.object_granular) {
        track::Detection d;
        d.position = obj.centroid_world.xy();
        d.velocity = obj.velocity_world;
        const geom::Aabb box = obj.cloud_world.aabb_xy();
        d.kind = classify_extent(box);
        d.extent = box.empty() ? 0.0 : std::max(box.extent().x, box.extent().y);
        d.point_count = obj.point_count;
        d.payload_bytes = pc::encoded_size_bytes(obj.point_count);
        d.truth_id = obj.truth_id;
        out.push_back(std::move(d));
      } else {
        blobs.push_back(&obj.cloud_world);
      }
    }
  }

  // Point Cloud Merging (paper §II-C): several vehicles report the same
  // object from different viewpoints; fuse reports that lie within the
  // footprint of one object into a single detection, or the tracker would
  // breed duplicate tracks of everything.
  if (out.size() > 1) {
    std::vector<track::Detection> fused;
    std::vector<bool> used(out.size(), false);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (used[i]) continue;
      track::Detection merged = out[i];
      geom::Vec2 pos_sum = out[i].position;
      geom::Vec2 vel_sum = out[i].velocity.value_or(geom::Vec2{});
      int n = 1;
      for (std::size_t j = i + 1; j < out.size(); ++j) {
        if (used[j]) continue;
        if (distance(out[j].position, out[i].position) > 2.4) continue;
        used[j] = true;
        pos_sum += out[j].position;
        vel_sum += out[j].velocity.value_or(geom::Vec2{});
        ++n;
        // Keep the richest view as the dissemination payload.
        if (out[j].point_count > merged.point_count) {
          merged.point_count = out[j].point_count;
          merged.payload_bytes = out[j].payload_bytes;
        }
        merged.extent = std::max(merged.extent, out[j].extent);
        if (merged.extent > 1.4) merged.kind = sim::AgentKind::kCar;
        if (merged.truth_id == sim::kInvalidAgent) {
          merged.truth_id = out[j].truth_id;
        }
      }
      merged.position = pos_sum / static_cast<double>(n);
      if (merged.velocity) {
        merged.velocity = vel_sum / static_cast<double>(n);
      }
      fused.push_back(std::move(merged));
    }
    out = std::move(fused);
  }

  if (!blobs.empty()) {
    // Server-side ground strip (raw uploads still carry ground returns),
    // blobs in upload order into the kept merge buffer, then voxel thinning
    // in place and density clustering.
    BlobScratch& sc = *blob_scratch_;
    pc::PointCloud& merged = sc.merged;
    merged.clear();
    for (const pc::PointCloud* blob : blobs) {
      for (const geom::Vec3& p : blob->points()) {
        if (p.z > 0.25) merged.push_back(p);
      }
    }
    pc::voxel_downsample(merged, kDetectVoxel, merged, sc.voxel);
    const pc::DbscanResult seg = pc::dbscan(merged, kDetectDbscan, sc.dbscan);
    *dbscan_distance_tests += seg.distance_tests;
    for (const pc::ObjectCluster& c : pc::extract_clusters(merged, seg)) {
      if (c.point_count() < 4) continue;
      const geom::Aabb& footprint = c.footprint;
      track::Detection d;
      d.position = c.centroid.xy();
      d.kind = classify_extent(footprint);
      d.extent = footprint.empty()
                     ? 0.0
                     : std::max(footprint.extent().x, footprint.extent().y);
      d.point_count = c.point_count();
      d.payload_bytes = pc::encoded_size_bytes(c.point_count());
      if (truth != nullptr) {
        d.truth_id = match_truth(*truth, d.position, 2.5);
      }
      out.push_back(std::move(d));
    }
  }
  return out;
}

FrameOutput EdgeServer::process_frame(
    std::vector<net::UploadFrame> uploads, double t,
    const std::vector<sim::AgentSnapshot>* truth) {
  ERPD_REQUIRE(cfg_.method != Method::kSingle,
               "EdgeServer::process_frame: Single shares nothing");
  FrameOutput out;

  // ---- Ingest (DESIGN.md §12, §17) ---------------------------------------
  // Three steps, in order: the guard (validation + reputation), the point
  // budget, then service-mode deadline admission. The last two are the one
  // rank-and-grant shedder under two policies. Each step takes the batch and
  // returns what it admits. With every layer off and no wire payloads
  // attached, all three are bypassed and this frame is bit-identical to the
  // pre-hardening pipeline.
  if (guard_.should_run(uploads)) {
    uploads = guard_.admit(std::move(uploads), t, &out.ingest);
  }
  if (cfg_.ingest.enabled) {  // the guard ran on this batch
    ServiceStats points;
    uploads = point_stage_.run(std::move(uploads), &points);
    out.ingest.shed_uploads = points.shed_objects;
  }
  if (cfg_.service.enabled) {
    uploads = admission_.run(std::move(uploads), &out.service);
  }

  // Delta-base acknowledgement: remember the highest admitted upload_seq per
  // vehicle so the next feedback can tell clients whether their keyframe
  // made it past loss, capping and the ingest guard.
  if (cfg_.redundancy.enabled) {
    for (const net::UploadFrame& f : uploads) {
      if (f.upload_seq == 0) continue;
      std::uint64_t& acked = acked_seq_[f.vehicle];
      acked = std::max(acked, f.upload_seq);
    }
  }

  // ---- Traffic-map construction (merge + detection) -----------------------
  obs::StageSpan merge_span(metrics_, "stage.merge");
  const std::vector<track::Detection> detections =
      build_detections(uploads, truth, &out.dbscan_distance_tests);
  out.detections = detections.size();

  // Update the connected-vehicle registry from upload poses. Velocity is
  // the pose displacement since the previous upload.
  for (const net::UploadFrame& f : uploads) {
    VehicleInfo& info = fleet_[f.vehicle];
    const Vec2 pos = f.pose.position.xy();
    if (info.has_prev && t > info.last_seen) {
      info.velocity = (pos - info.position) / (t - info.last_seen);
    }
    info.position = pos;
    info.last_seen = t;
    info.has_prev = true;
  }
  // Forget vehicles that stopped uploading.
  std::erase_if(fleet_, [t](const auto& kv) {
    return t - kv.second.last_seen > 1.0;
  });
  merge_span.stop();

  // ---- Tracking + rules + prediction --------------------------------------
  obs::StageSpan track_span(metrics_, "stage.track");
  tracker_.step(detections, t);
  const std::vector<const track::Track*> confirmed = tracker_.confirmed();
  out.confirmed_tracks = confirmed.size();
  for (const track::Track* tr : confirmed) {
    if (tr->misses == 0 && tr->velocity().norm() > 1.0) ++out.moving_tracks;
    if (tr->misses > 0) ++out.coasting_tracks;
  }

  // Rules 1-3 and hypothesis sets: on a shared approach the lane intent is
  // ambiguous, so each predicted object/vehicle carries one trajectory per
  // plausible maneuver and relevance maximizes over the combinations. Each
  // hypothesis is clipped to its reach once here, not once per pair it is
  // scored in. Only relevance-greedy dissemination reads them, and a track
  // the rules snapped is predicted from their route fits, not a second scan.
  using Hypotheses = std::vector<core::ClippedTrajectory>;
  const auto clip_all = [](std::vector<track::PredictedTrajectory> hyps) {
    Hypotheses out;
    out.reserve(hyps.size());
    for (track::PredictedTrajectory& h : hyps) {
      out.push_back(core::clip_to_reach(std::move(h)));
    }
    return out;
  };
  const bool scores_relevance = cfg_.method == Method::kOurs;
  track::RepresentativeSet reps;
  const auto hypotheses = [&](const track::Track& tr) {
    const auto fit = reps.route_fits.find(tr.id);
    return clip_all(predictor_.predict_hypotheses(
        tr.position(), tr.velocity(), tr.kind,
        fit == reps.route_fits.end() ? nullptr : &fit->second,
        &out.route_projections));
  };
  std::map<int, Hypotheses> traj;
  std::map<sim::AgentId, Hypotheses> vehicle_traj;
  if (scores_relevance) {
    reps = rules_.select(confirmed);
    out.predicted_tracks = reps.predicted_tracks.size();
    out.route_projections = reps.route_projections;
    for (int id : reps.predicted_tracks) {
      if (const track::Track* tr = tracker_.find(id)) {
        traj.emplace(id, hypotheses(*tr));
      }
    }
    for (const auto& [vid, info] : fleet_) {
      vehicle_traj.emplace(
          vid, clip_all(predictor_.predict_hypotheses(
                   info.position, info.velocity, sim::AgentKind::kCar,
                   nullptr, &out.route_projections)));
    }
  }
  track_span.stop();

  // ---- Coverage feedback (DESIGN.md §16) ----------------------------------
  // Region = Voronoi cell over the connected fleet (owner = nearest vehicle,
  // first-lowest-index tie-break, the same rule VehicleClient applies on its
  // copy of the sites). Instant coverage of a region saturates from uploaded
  // points and fresh confirmed tracks inside it; an EMA smooths it so one
  // quiet frame does not flip a region back to "uncovered".
  if (cfg_.redundancy.enabled && !fleet_.empty()) {
    std::vector<Vec2> sites;
    std::vector<sim::AgentId> owners;
    sites.reserve(fleet_.size());
    owners.reserve(fleet_.size());
    for (const auto& [vid, info] : fleet_) {
      sites.push_back(info.position);
      owners.push_back(vid);
    }
    const geom::VoronoiPartition part(sites);

    std::vector<double> instant(owners.size(), 0.0);
    for (const net::UploadFrame& f : uploads) {
      for (const net::ObjectUpload& obj : f.objects) {
        if (const auto cell = part.cell_of(obj.centroid_world.xy())) {
          instant[*cell] +=
              static_cast<double>(obj.point_count) / kCoveragePointsNorm;
        }
      }
    }
    for (const track::Track* tr : confirmed) {
      if (tr->misses != 0) continue;
      if (const auto cell = part.cell_of(tr->position())) {
        instant[*cell] += kCoverageTrackWeight;
      }
    }

    // EMA update, keyed by owner so a region's history follows its vehicle.
    for (std::size_t i = 0; i < owners.size(); ++i) {
      double& conf = coverage_[owners[i]];
      conf += kCoverageAlpha * (std::min(instant[i], 1.0) - conf);
    }
    std::erase_if(coverage_, [this](const auto& kv) {
      return fleet_.find(kv.first) == fleet_.end();
    });
    std::erase_if(acked_seq_, [this](const auto& kv) {
      return fleet_.find(kv.first) == fleet_.end();
    });

    // One feedback message per connected vehicle, each carrying the full
    // region map plus that vehicle's delta-base ack.
    out.feedback.reserve(owners.size());
    for (std::size_t i = 0; i < owners.size(); ++i) {
      net::CoverageFeedback fb;
      fb.to = owners[i];
      fb.timestamp = t;
      const auto ack = acked_seq_.find(owners[i]);
      if (ack != acked_seq_.end()) {
        fb.last_admitted_upload_seq = ack->second;
        fb.has_ack = true;
      }
      fb.regions.reserve(owners.size());
      for (std::size_t j = 0; j < owners.size(); ++j) {
        fb.regions.push_back({owners[j], sites[j], coverage_.at(owners[j])});
      }
      out.feedback_bytes += fb.wire_bytes();
      out.feedback.push_back(std::move(fb));
    }
  }

  // ---- Relevance estimation -----------------------------------------------
  obs::StageSpan relevance_span(metrics_, "stage.relevance");

  // Visibility: which tracks does each uploader already see?
  // For object-granular uploads, compare object centroids; for blobs, count
  // points near the track.
  auto visible_to = [&](const net::UploadFrame& frame, Vec2 track_pos) {
    for (const net::ObjectUpload& obj : frame.objects) {
      if (obj.object_granular) {
        if (distance(obj.centroid_world.xy(), track_pos) < kVisibilityRadius) {
          return true;
        }
      } else {
        int near = 0;
        for (const geom::Vec3& p : obj.cloud_world.points()) {
          if (distance(p.xy(), track_pos) < kVisibilityRadius &&
              ++near >= 3) {
            return true;
          }
        }
      }
    }
    return false;
  };

  const auto object_kind_length = [](sim::AgentKind k) {
    return sim::default_dims(k).length;
  };

  std::vector<core::Candidate> candidates;
  // Relevance of each object to each *connected* vehicle.
  // track id -> (vehicle -> relevance), reused for follower propagation.
  std::map<int, std::map<sim::AgentId, double>> relevance_of;

  if (scores_relevance) {
    // Each uploader's own frame, for the visibility rule. The last frame of
    // a vehicle wins: under service mode a carried frame precedes the fresh
    // one, whose objects are what the vehicle sees now.
    std::map<sim::AgentId, const net::UploadFrame*> own_frame;
    for (const net::UploadFrame& f : uploads) own_frame[f.vehicle] = &f;

    for (const auto& [vid, info] : fleet_) {
      const auto vt = vehicle_traj.find(vid);
      if (vt == vehicle_traj.end()) continue;
      const auto own_it = own_frame.find(vid);
      const net::UploadFrame* own =
          own_it == own_frame.end() ? nullptr : own_it->second;
      for (const auto& [tid, trj] : traj) {
        const track::Track* tr = tracker_.find(tid);
        if (tr == nullptr) continue;
        // Skip the vehicle's own track.
        if (distance(tr->position(), info.position) < kSelfRadius) {
          continue;
        }
        // Directly observable objects need no dissemination (relevance 0).
        if (own != nullptr && visible_to(*own, tr->position())) continue;

        const auto est = core::best_collision(
            trj, vt->second, object_kind_length(tr->kind),
            object_kind_length(sim::AgentKind::kCar), out.relevance);
        if (!est) continue;
        // A coasting track's position is a prediction, not a measurement;
        // decay its relevance per missed frame so stale hazards do not
        // outrank freshly observed ones in the knapsack.
        double rel = est->relevance;
        if (tr->misses > 0 && cfg_.staleness_decay > 0.0) {
          rel *= std::pow(1.0 - cfg_.staleness_decay, tr->misses);
        }
        if (rel < kMinRelevance) continue;
        if (tr->misses > 0) ++out.stale_candidates;
        relevance_of[tid][vid] = rel;
        candidates.push_back({tid, vid, rel, tr->payload_bytes,
                              tr->truth_id});
      }
    }

    // Pedestrian cluster members inherit their representative's relevance.
    for (const auto& [member, rep] : reps.pedestrian_rep_of) {
      const auto rep_rel = relevance_of.find(rep);
      if (rep_rel == relevance_of.end()) continue;
      const track::Track* tr = tracker_.find(member);
      if (tr == nullptr) continue;
      for (const auto& [vid, r] : rep_rel->second) {
        const auto& info = fleet_.at(vid);
        if (distance(tr->position(), info.position) < kSelfRadius) {
          continue;
        }
        candidates.push_back({member, vid, r, tr->payload_bytes, tr->truth_id});
        relevance_of[member][vid] = r;
      }
    }

    // Follower relevance (§III-A.2): walk each lane queue front-to-back and
    // propagate alpha-decayed relevance to unsafe followers.
    if (cfg_.follower_relevance) {
      // The connected vehicle a track is: the first fleet entry (id order)
      // within kSelfRadius, or none.
      const auto vehicle_at = [this](Vec2 pos) {
        for (const auto& [vid, info] : fleet_) {
          if (distance(info.position, pos) < kSelfRadius) return vid;
        }
        return sim::kInvalidAgent;
      };
      // Hypotheses of unconnected leaders: a lane front's are its own in
      // `traj`; any other leader's are predicted on first use and then
      // shared by every object and queue step that needs them this frame.
      std::map<int, Hypotheses> leader_traj;
      const auto leader_hypotheses = [&](const track::Track& ltr)
          -> const Hypotheses& {
        if (const auto it = traj.find(ltr.id); it != traj.end()) {
          return it->second;
        }
        auto [it, fresh] = leader_traj.try_emplace(ltr.id);
        if (fresh) it->second = hypotheses(ltr);
        return it->second;
      };
      for (const track::LaneQueue& q : reps.lane_queues) {
        for (std::size_t i = 1; i < q.track_ids.size(); ++i) {
          const int follower_tid = q.track_ids[i];
          const int leader_tid = q.track_ids[i - 1];
          const track::Track* ftr = tracker_.find(follower_tid);
          const track::Track* ltr = tracker_.find(leader_tid);
          if (ftr == nullptr || ltr == nullptr) break;
          const double gap = q.arc_lengths[i - 1] - q.arc_lengths[i] -
                             object_kind_length(ftr->kind);
          const double fspeed = ftr->velocity().norm();
          if (!core::follower_unsafe(gap, fspeed, cfg_.follower)) continue;

          // The follower *receives* data, so it must be a connected vehicle.
          const sim::AgentId follower_vid = vehicle_at(ftr->position());
          if (follower_vid == sim::kInvalidAgent) continue;
          const sim::AgentId leader_vid = vehicle_at(ltr->position());

          // Inherit from every object relevant to the leader. If the leader
          // is itself connected its recipient relevance is already in
          // relevance_of; otherwise estimate the object-leader collision
          // directly from their trajectories.
          for (const auto& [obj_tid, per_vehicle] : relevance_of) {
            if (obj_tid == follower_tid) continue;
            // Leader's relevance for this object, via the leader's vehicle id
            // if connected, else via a fresh trajectory-pair estimate.
            double r_leader = 0.0;
            if (leader_vid != sim::kInvalidAgent) {
              const auto it = per_vehicle.find(leader_vid);
              if (it != per_vehicle.end()) r_leader = it->second;
            }
            if (r_leader <= 0.0) {
              const auto obj_traj = traj.find(obj_tid);
              if (obj_traj == traj.end()) continue;
              const auto est = core::best_collision(
                  obj_traj->second, leader_hypotheses(*ltr),
                  object_kind_length(tracker_.find(obj_tid)->kind),
                  object_kind_length(ltr->kind), out.relevance);
              if (est) r_leader = est->relevance;
            }
            if (r_leader < kMinRelevance) continue;
            const double r_f = cfg_.follower.alpha * r_leader;
            if (r_f < kMinRelevance) continue;
            auto& slot = relevance_of[obj_tid][follower_vid];
            if (r_f > slot) {
              slot = r_f;
              const track::Track* obj_tr = tracker_.find(obj_tid);
              candidates.push_back({obj_tid, follower_vid, r_f,
                                    obj_tr->payload_bytes, obj_tr->truth_id});
            }
          }
        }
      }
    }
  } else {
    // EMP / Unlimited: every confirmed track to every connected vehicle.
    for (const track::Track* tr : confirmed) {
      for (const auto& [vid, info] : fleet_) {
        if (distance(tr->position(), info.position) < kSelfRadius) {
          continue;
        }
        candidates.push_back({tr->id, vid, 0.0, tr->payload_bytes,
                              tr->truth_id});
      }
    }
  }
  out.candidates = candidates.size();
  relevance_span.stop();

  // ---- Dissemination scheduling -------------------------------------------
  obs::StageSpan diss_span(metrics_, "stage.disseminate");
  const std::size_t budget = cfg_.wireless.downlink_budget_bytes();
  core::Selection sel;
  switch (cfg_.method) {
    case Method::kOurs:
      sel = core::greedy_dissemination(candidates, budget);
      break;
    case Method::kEmp:
      sel = core::round_robin_dissemination(candidates, budget, rr_cursor_);
      break;
    case Method::kUnlimited:
      sel = core::broadcast_dissemination(candidates);
      break;
    case Method::kSingle:
      break;  // refused on entry
  }
  diss_span.stop();

  out.downlink_bytes = sel.total_bytes;
  out.selected.reserve(sel.chosen.size());
  for (const core::Candidate& c : sel.chosen) {
    out.selected.push_back({c.to, c.track_id, c.about, c.bytes, c.relevance});
  }
  return out;
}

}  // namespace erpd::edge
