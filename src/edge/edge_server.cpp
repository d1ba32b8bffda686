#include "edge/edge_server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.hpp"
#include "core/thread_pool.hpp"
#include "obs/span.hpp"
#include "pointcloud/encoding.hpp"

namespace erpd::edge {

using geom::Vec2;
using track::kCarMinExtent;

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
    : cfg_(cfg),
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
  ERPD_REQUIRE(cfg_.follower.alpha >= 0.0 && cfg_.follower.alpha <= 1.0,
               "EdgeServer: follower.alpha must be in [0,1], got ",
               cfg_.follower.alpha);
}

namespace {

// A footprint's planar extent, and the kind an extent that size looks like.
void set_footprint(track::Detection& d, const geom::Aabb& box) {
  d.extent = box.empty() ? 0.0 : std::max(box.extent().x, box.extent().y);
  d.kind = d.extent < kCarMinExtent ? sim::AgentKind::kPedestrian
                                    : sim::AgentKind::kCar;
}

sim::AgentId match_truth(const std::vector<sim::AgentSnapshot>& truth,
                         Vec2 pos) {
  sim::AgentId best = sim::kInvalidAgent;
  double best_d = track::kTruthMatchRadius;
  for (const sim::AgentSnapshot& a : truth) {
    const double d = distance(a.position, pos);
    if (d < best_d) {
      best_d = d;
      best = a.id;
    }
  }
  return best;
}

Hypotheses clip_all(std::vector<track::PredictedTrajectory> hyps) {
  Hypotheses out;
  out.reserve(hyps.size());
  for (track::PredictedTrajectory& h : hyps) {
    out.push_back(core::clip_to_reach(std::move(h)));
  }
  return out;
}

// Directly observable objects need no dissemination (relevance 0): the
// vehicle uploads an object within kVisibilityRadius of the track.
bool visible_to(const net::UploadFrame& frame, Vec2 track_pos) {
  for (const net::ObjectUpload& obj : frame.objects) {
    if (distance(obj.centroid_world.xy(), track_pos) < kVisibilityRadius) {
      return true;
    }
  }
  return false;
}

double kind_length(sim::AgentKind k) { return sim::default_dims(k).length; }

}  // namespace

FrameOutput EdgeServer::process_frame(
    std::vector<net::UploadFrame> uploads, double t,
    const std::vector<sim::AgentSnapshot>* truth) {
  ERPD_REQUIRE(cfg_.method != Method::kSingle,
               "EdgeServer::process_frame: Single shares nothing");
  FrameOutput out;
  uploads = admit(std::move(uploads), t, out);

  obs::StageSpan merge_span(metrics_, "stage.merge");
  const std::vector<track::Detection> detections =
      build_map(uploads, t, truth, out);
  merge_span.stop();

  obs::StageSpan track_span(metrics_, "stage.track");
  Tracked tracked = track_and_predict(detections, t, out);
  track_span.stop();

  if (cfg_.redundancy.enabled && !fleet_.empty()) {
    coverage_feedback(uploads, tracked.confirmed, t, out);
  }

  obs::StageSpan relevance_span(metrics_, "stage.relevance");
  const std::vector<core::Candidate> cands = candidates(uploads, tracked, out);
  relevance_span.stop();

  obs::StageSpan diss_span(metrics_, "stage.disseminate");
  disseminate(cands, out);
  return out;
}

// Ingest (DESIGN.md §12, §17): the guard (validation + reputation), the
// point budget, then service-mode deadline admission, each taking the batch
// and returning what it admits. The last two are the one rank-and-grant
// shedder under two policies. With every layer off and no wire payloads
// attached, all three are bypassed.
std::vector<net::UploadFrame> EdgeServer::admit(
    std::vector<net::UploadFrame> uploads, double t, FrameOutput& out) {
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
  return uploads;
}

// Traffic-map construction: detections from the uploads, then the connected
// fleet from their poses.
std::vector<track::Detection> EdgeServer::build_map(
    const std::vector<net::UploadFrame>& uploads, double t,
    const std::vector<sim::AgentSnapshot>* truth, FrameOutput& out) {
  std::vector<track::Detection> dets;

  // Object-granular uploads (Ours) become detections directly; blob uploads
  // (EMP cells / raw frames) are merged and segmented server-side.
  std::vector<const pc::PointCloud*> blobs;
  for (const net::UploadFrame& frame : uploads) {
    for (const net::ObjectUpload& obj : frame.objects) {
      if (obj.object_granular) {
        track::Detection d;
        d.position = obj.centroid_world.xy();
        d.velocity = obj.velocity_world;
        set_footprint(d, obj.cloud_world.aabb_xy());
        d.point_count = obj.point_count;
        d.payload_bytes = pc::encoded_size_bytes(obj.point_count);
        d.truth_id = obj.truth_id;
        dets.push_back(std::move(d));
      } else {
        blobs.push_back(&obj.cloud_world);
      }
    }
  }

  // Point Cloud Merging (paper §II-C): several vehicles report the same
  // object from different viewpoints; fuse reports that lie within the
  // footprint of one object into a single detection, or the tracker would
  // breed duplicate tracks of everything.
  if (dets.size() > 1) {
    std::vector<track::Detection> fused;
    std::vector<bool> used(dets.size(), false);
    for (std::size_t i = 0; i < dets.size(); ++i) {
      if (used[i]) continue;
      track::Detection merged = dets[i];
      geom::Vec2 pos_sum = dets[i].position;
      geom::Vec2 vel_sum = dets[i].velocity.value_or(geom::Vec2{});
      int n = 1;
      for (std::size_t j = i + 1; j < dets.size(); ++j) {
        if (used[j]) continue;
        if (distance(dets[j].position, dets[i].position) > 2.4) continue;
        used[j] = true;
        pos_sum += dets[j].position;
        vel_sum += dets[j].velocity.value_or(geom::Vec2{});
        ++n;
        // Keep the richest view as the dissemination payload.
        if (dets[j].point_count > merged.point_count) {
          merged.point_count = dets[j].point_count;
          merged.payload_bytes = dets[j].payload_bytes;
        }
        merged.extent = std::max(merged.extent, dets[j].extent);
        if (merged.extent > kCarMinExtent) merged.kind = sim::AgentKind::kCar;
        if (merged.truth_id == sim::kInvalidAgent) {
          merged.truth_id = dets[j].truth_id;
        }
      }
      merged.position = pos_sum / static_cast<double>(n);
      if (merged.velocity) {
        merged.velocity = vel_sum / static_cast<double>(n);
      }
      fused.push_back(std::move(merged));
    }
    dets = std::move(fused);
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
        if (p.z > kBlobGroundStrip) merged.push_back(p);
      }
    }
    pc::voxel_downsample(merged, kDetectVoxel, merged, sc.voxel);
    const pc::DbscanResult seg = pc::dbscan(merged, kDetectDbscan, sc.dbscan);
    out.dbscan_distance_tests += seg.distance_tests;
    for (const pc::ObjectCluster& c : pc::extract_clusters(merged, seg)) {
      if (c.point_count() < 4) continue;
      track::Detection d;
      d.position = c.centroid.xy();
      set_footprint(d, c.footprint);
      d.point_count = c.point_count();
      d.payload_bytes = pc::encoded_size_bytes(c.point_count());
      if (truth != nullptr) {
        d.truth_id = match_truth(*truth, d.position);
      }
      dets.push_back(std::move(d));
    }
  }
  out.detections = dets.size();

  // Velocity is the pose displacement since the vehicle's previous upload.
  for (const net::UploadFrame& f : uploads) {
    auto [it, fresh] = fleet_.try_emplace(f.vehicle);
    VehicleInfo& info = it->second;
    const Vec2 pos = f.pose.position.xy();
    if (!fresh && t > info.last_seen) {
      info.velocity = (pos - info.position) / (t - info.last_seen);
    }
    info.position = pos;
    info.last_seen = t;
  }
  // Forget vehicles that stopped uploading.
  std::erase_if(fleet_, [t](const auto& kv) {
    return t - kv.second.last_seen > 1.0;
  });
  return dets;
}

Hypotheses EdgeServer::predict(const track::Track& tr,
                               const track::RepresentativeSet& reps,
                               std::uint64_t* route_projections) const {
  const auto fit = reps.route_fits.find(tr.id);
  return clip_all(predictor_.predict_hypotheses(
      tr.position(), tr.velocity(), tr.kind,
      fit == reps.route_fits.end() ? nullptr : &fit->second,
      route_projections));
}

// Tracking, then (Ours only) Rules 1-3 and hypothesis sets: on a shared
// approach the lane intent is ambiguous, so each predicted object and
// vehicle carries one trajectory per plausible maneuver and relevance
// maximizes over the combinations. A track the rules snapped is predicted
// from their route fits, not a second scan.
EdgeServer::Tracked EdgeServer::track_and_predict(
    const std::vector<track::Detection>& detections, double t,
    FrameOutput& out) {
  tracker_.step(detections, t);
  Tracked tk;
  tk.confirmed = tracker_.confirmed();
  out.confirmed_tracks = tk.confirmed.size();
  for (const track::Track* tr : tk.confirmed) {
    if (tr->misses == 0 && tr->velocity().norm() > 1.0) ++out.moving_tracks;
    if (tr->misses > 0) ++out.coasting_tracks;
  }
  if (cfg_.method != Method::kOurs) return tk;

  tk.reps = rules_.select(tk.confirmed);
  out.predicted_tracks = tk.reps.predicted_tracks.size();
  out.route_projections = tk.reps.route_projections;
  for (int id : tk.reps.predicted_tracks) {
    if (const track::Track* tr = tracker_.find(id)) {
      tk.objects.emplace(id, predict(*tr, tk.reps, &out.route_projections));
    }
  }
  for (const auto& [vid, info] : fleet_) {
    tk.fleet[vid] = {info.position,
                     clip_all(predictor_.predict_hypotheses(
                         info.position, info.velocity, sim::AgentKind::kCar,
                         nullptr, &out.route_projections))};
  }
  return tk;
}

// Coverage feedback (DESIGN.md §16). Region = Voronoi cell over the
// connected fleet (owner = nearest vehicle, first-lowest-index tie-break,
// the rule VehicleClient applies to its copy of the sites). Instant
// coverage of a region saturates from uploaded points and fresh confirmed
// tracks inside it; an EMA smooths it so one quiet frame does not flip a
// region back to "uncovered".
void EdgeServer::coverage_feedback(
    const std::vector<net::UploadFrame>& uploads,
    const std::vector<const track::Track*>& confirmed, double t,
    FrameOutput& out) {
  // Delta-base acknowledgement: the highest admitted upload_seq per vehicle
  // tells its client whether a keyframe got past loss, capping and ingest.
  for (const net::UploadFrame& f : uploads) {
    if (f.upload_seq == 0) continue;
    std::uint64_t& acked = acked_seq_[f.vehicle];
    acked = std::max(acked, f.upload_seq);
  }

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

// Ours scores relevance; EMP and Unlimited send every confirmed track to
// every other connected vehicle.
std::vector<core::Candidate> EdgeServer::candidates(
    const std::vector<net::UploadFrame>& uploads, Tracked& tracked,
    FrameOutput& out) {
  std::vector<core::Candidate> cands;
  if (cfg_.method == Method::kOurs) {
    for (const net::UploadFrame& f : uploads) {
      tracked.fleet.at(f.vehicle).own_frame = &f;  // the last frame wins
    }
    const std::function<Hypotheses(const track::Track&)> predict_leader =
        [this, &tracked, &out](const track::Track& ltr) {
          return predict(ltr, tracked.reps, &out.route_projections);
        };
    RelevanceTable table = score_relevance(
        {tracked.fleet, tracker_, tracked.reps, tracked.objects,
         predict_leader, cfg_.follower, cfg_.staleness_decay},
        out.relevance);
    out.stale_candidates = table.stale;
    out.duplicate_candidates = table.duplicates;
    cands = std::move(table.candidates);
  } else {
    for (const track::Track* tr : tracked.confirmed) {
      for (const auto& [vid, info] : fleet_) {
        if (distance(tr->position(), info.position) < kSelfRadius) continue;
        cands.push_back({tr->id, vid, 0.0, tr->payload_bytes, tr->truth_id});
      }
    }
  }
  out.candidates = cands.size();
  return cands;
}

void EdgeServer::disseminate(const std::vector<core::Candidate>& candidates,
                             FrameOutput& out) {
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
  out.downlink_bytes = sel.total_bytes;
  out.selected.reserve(sel.chosen.size());
  for (const core::Candidate& c : sel.chosen) {
    out.selected.push_back({c.to, c.track_id, c.about, c.bytes, c.relevance});
  }
}

void RelevanceTable::emit(const track::Track& object, sim::AgentId to,
                          RelevanceEntry e) {
  if (!entries.insert_or_assign({object.id, to}, e).second) ++duplicates;
  candidates.push_back(
      {object.id, to, e.value, object.payload_bytes, object.truth_id});
}

const RelevanceEntry* RelevanceTable::find(int track_id,
                                           sim::AgentId to) const {
  const auto it = entries.find({track_id, to});
  return it == entries.end() ? nullptr : &it->second;
}

std::map<RelevanceTable::Key, RelevanceEntry>::const_iterator
RelevanceTable::row(int track_id) const {
  return entries.lower_bound(
      {track_id, std::numeric_limits<sim::AgentId>::min()});
}

RelevanceTable score_relevance(const RelevanceInputs& in,
                               core::RelevanceTally& tally) {
  using Source = RelevanceEntry::Source;
  for (const auto& [vid, v] : in.fleet) {
    if (v.own_frame == nullptr) continue;
    for (const net::ObjectUpload& obj : v.own_frame->objects) {
      ERPD_REQUIRE(obj.object_granular, "score_relevance: vehicle ", vid,
                   " uploaded a blob; relevance reads objects only");
    }
  }
  RelevanceTable table;

  // Direct: each predicted object against each connected vehicle that is
  // not that object and does not see it.
  for (const auto& [vid, v] : in.fleet) {
    for (const auto& [tid, hyps] : in.objects) {
      const track::Track* tr = in.tracker.find(tid);
      if (tr == nullptr) continue;
      if (distance(tr->position(), v.position) < kSelfRadius) continue;
      if (v.own_frame != nullptr && visible_to(*v.own_frame, tr->position())) {
        continue;
      }
      const auto est =
          core::best_collision(hyps, v.hypotheses, kind_length(tr->kind),
                               kind_length(sim::AgentKind::kCar), tally);
      if (!est) continue;
      // A coasting track's position is a prediction, not a measurement;
      // decay its relevance per missed frame so stale hazards do not
      // outrank freshly observed ones in the knapsack.
      double rel = est->relevance;
      if (tr->misses > 0 && in.staleness_decay > 0.0) {
        rel *= std::pow(1.0 - in.staleness_decay, tr->misses);
      }
      if (rel < kMinRelevance) continue;
      if (tr->misses > 0) ++table.stale;
      table.emit(*tr, vid, {rel});
    }
  }

  // Crowd: each pedestrian cluster member takes its representative's
  // values. Writing adds to the member's row, never the representative's.
  for (const auto& [member, rep] : in.reps.pedestrian_rep_of) {
    const track::Track* tr = in.tracker.find(member);
    if (tr == nullptr) continue;
    for (auto it = table.row(rep);
         it != table.entries.end() && it->first.first == rep; ++it) {
      const sim::AgentId vid = it->first.second;
      if (distance(tr->position(), in.fleet.at(vid).position) < kSelfRadius) {
        continue;
      }
      table.emit(*tr, vid, {it->second.value, Source::kCrowdMember, rep});
    }
  }

  // Follower (§III-A.2): down each lane queue, an unsafe follower that is a
  // connected vehicle (it *receives* data) raises its value for each object
  // to alpha x the leader's: the leader's table entry if the leader is
  // connected (kInvalidAgent has none), else a fresh estimate from the two
  // trajectories.
  const auto vehicle_at = [&](Vec2 pos) {
    for (const auto& [vid, v] : in.fleet) {
      if (distance(v.position, pos) < kSelfRadius) return vid;
    }
    return sim::kInvalidAgent;
  };
  std::map<int, Hypotheses> leaders;  // unpredicted leaders, on first need
  const auto leader_hypotheses =
      [&](const track::Track& ltr) -> const Hypotheses& {
    if (const auto it = in.objects.find(ltr.id); it != in.objects.end()) {
      return it->second;
    }
    auto [it, fresh] = leaders.try_emplace(ltr.id);
    if (fresh) it->second = in.predict_leader(ltr);
    return it->second;
  };
  for (const track::LaneQueue& q : in.reps.lane_queues) {
    for (std::size_t i = 1; i < q.track_ids.size(); ++i) {
      const track::Track* ftr = in.tracker.find(q.track_ids[i]);
      const track::Track* ltr = in.tracker.find(q.track_ids[i - 1]);
      if (ftr == nullptr || ltr == nullptr) break;
      const double gap = q.arc_lengths[i - 1] - q.arc_lengths[i] -
                         kind_length(ftr->kind);
      if (!core::follower_unsafe(gap, ftr->velocity().norm(), in.follower)) {
        continue;
      }
      const sim::AgentId follower_vid = vehicle_at(ftr->position());
      if (follower_vid == sim::kInvalidAgent) continue;
      const sim::AgentId leader_vid = vehicle_at(ltr->position());

      // Each object once; writing adds to the current row only.
      for (auto row = table.entries.cbegin(); row != table.entries.cend();
           row = table.row(row->first.first + 1)) {
        const int obj_tid = row->first.first;
        if (obj_tid == ftr->id) continue;
        const RelevanceEntry* lead = table.find(obj_tid, leader_vid);
        double r_leader = lead != nullptr ? lead->value : 0.0;
        if (r_leader <= 0.0) {
          const auto obj = in.objects.find(obj_tid);
          if (obj == in.objects.end()) continue;
          const auto est = core::best_collision(
              obj->second, leader_hypotheses(*ltr),
              kind_length(in.tracker.find(obj_tid)->kind),
              kind_length(ltr->kind), tally);
          if (est) r_leader = est->relevance;
        }
        if (r_leader < kMinRelevance) continue;
        const double r_f = in.follower.alpha * r_leader;
        const RelevanceEntry* own = table.find(obj_tid, follower_vid);
        if (r_f < kMinRelevance || (own != nullptr && r_f <= own->value)) {
          continue;
        }
        table.emit(*in.tracker.find(obj_tid), follower_vid,
                   {r_f, Source::kFollower, ltr->id, in.follower.alpha});
      }
    }
  }
  return table;
}

}  // namespace erpd::edge
