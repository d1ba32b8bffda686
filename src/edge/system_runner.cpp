#include "edge/system_runner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/check.hpp"
#include "core/thread_pool.hpp"
#include "obs/span.hpp"
#include "pointcloud/encoding.hpp"

namespace erpd::edge {

RunnerConfig make_runner_config(Method method,
                                const net::WirelessConfig& wireless) {
  RunnerConfig rc;
  rc.method = method;
  rc.wireless = wireless;
  if (method == Method::kUnlimited) {
    // Effectively uncapped pipes.
    rc.wireless.uplink_mbps = 1e6;
    rc.wireless.downlink_mbps = 1e6;
  }
  return rc;
}

namespace {

/// Apply the shared uplink cap to this frame's uploads. Grant order rotates
/// across frames for fairness (EMP's round-robin uploading). Oversized blob
/// uploads are truncated point-wise (angular sectors are lost, as when EMP
/// exceeds its budget); object-granular uploads drop whole objects.
std::vector<net::UploadFrame> apply_uplink_cap(
    std::vector<net::UploadFrame> frames, std::size_t budget_bytes,
    std::size_t rotate) {
  std::vector<net::UploadFrame> out;
  if (frames.empty()) return out;
  net::FrameBudget budget(budget_bytes);
  const std::size_t n = frames.size();
  for (std::size_t k = 0; k < n; ++k) {
    net::UploadFrame& f = frames[(rotate + k) % n];
    if (!budget.try_grant(net::UploadFrame::kFrameOverhead)) break;
    std::vector<net::ObjectUpload> offered;
    offered.swap(f.objects);
    for (net::ObjectUpload& obj : offered) {
      if (budget.try_grant(obj.bytes)) {
        f.objects.push_back(std::move(obj));
        continue;
      }
      if (!obj.object_granular) {
        // Truncate the blob to whatever still fits.
        const std::size_t avail = budget.remaining();
        const std::size_t header = pc::encoded_size_bytes(0);
        if (avail > header + 64) {
          const std::size_t pts = (avail - header) / pc::kBytesPerPoint;
          net::ObjectUpload part;
          part.object_granular = false;
          std::vector<geom::Vec3> sub(
              obj.cloud_world.points().begin(),
              obj.cloud_world.points().begin() +
                  static_cast<std::ptrdiff_t>(
                      std::min<std::size_t>(pts, obj.cloud_world.size())));
          part.cloud_world = pc::PointCloud{std::move(sub)};
          part.point_count = part.cloud_world.size();
          part.bytes = pc::encoded_size_bytes(part.point_count);
          part.centroid_world = part.cloud_world.centroid();
          budget.grant_partial(part.bytes);
          f.objects.push_back(std::move(part));
        }
      }
      // Object-granular uploads: this object is simply lost this frame.
    }
    if (!f.objects.empty()) out.push_back(std::move(f));
  }
  return out;
}

/// Mangle delivered upload frames per the channel's corruption / Byzantine
/// schedule (DESIGN.md §12). Every decision and every mangle parameter is a
/// pure hash of (seed, vehicle, frame), and the loop runs in delivery order
/// on the caller's thread, so the result is thread-count-independent.
/// `last_clean` caches each vehicle's previous delivered (pre-mangle) frame
/// for stale replay. Returns how many frames the channel corrupted
/// (Byzantine frames are not corruption).
std::size_t apply_wire_faults(std::vector<net::UploadFrame>& delivered,
                       const net::LossyChannel& channel, int frame, double t,
                       const pc::EncodingConfig& enc_cfg,
                       std::map<sim::AgentId, net::UploadFrame>& last_clean) {
  const auto encode_objects = [&](net::UploadFrame& f) {
    for (net::ObjectUpload& o : f.objects) {
      // Redundancy uploads already carry their real wire bytes (keyframe or
      // delta chunk); mangling must hit those, not a re-encoded keyframe.
      if (o.wire_present) continue;
      o.wire = pc::encode(o.cloud_world, enc_cfg);
      o.wire_present = true;
    }
  };
  const auto truncate_objects = [&](net::UploadFrame& f) {
    encode_objects(f);
    std::uint64_t salt = 0x10;
    for (net::ObjectUpload& o : f.objects) {
      const std::uint64_t w = channel.corruption_word(f.vehicle, frame, salt++);
      o.wire.bytes.resize(w % std::max<std::size_t>(o.wire.bytes.size(), 1));
    }
  };

  std::size_t corrupted = 0;
  std::vector<net::UploadFrame> duplicates;
  for (net::UploadFrame& f : delivered) {
    const bool cache_replay = channel.corruption_active();
    net::UploadFrame clean;
    if (cache_replay) clean = f;

    if (channel.is_byzantine(f.vehicle, t)) {
      // Structurally valid, semantically garbage: teleport the pose and all
      // object positions by a deterministic multi-km offset. Finite values
      // keep the no-guard pipeline running (mis-tracking, not crashing);
      // with admission control on, the out-of-bounds coordinates earn
      // strikes and eventually quarantine.
      const std::uint64_t w = channel.corruption_word(f.vehicle, frame, 1);
      const double dx =
          3000.0 + static_cast<double>(w & 0xffff) / 65535.0 * 3000.0;
      const geom::Vec3 off{dx, ((w >> 16) & 1) != 0 ? dx : -dx, 0.0};
      f.pose.position += off;
      for (net::ObjectUpload& o : f.objects) {
        o.centroid_world += off;
      }
    } else {
      const net::CorruptionKind kind =
          channel.uplink_corruption(f.vehicle, frame);
      if (kind != net::CorruptionKind::kNone) ++corrupted;
      switch (kind) {
        case net::CorruptionKind::kNone:
          break;
        case net::CorruptionKind::kBitFlip: {
          encode_objects(f);
          for (std::size_t oi = 0; oi < f.objects.size(); ++oi) {
            net::ObjectUpload& o = f.objects[oi];
            if (o.wire.bytes.empty()) continue;
            const std::uint64_t w =
                channel.corruption_word(f.vehicle, frame, 0x20 + oi);
            const int flips = 1 + static_cast<int>(w % 7);
            for (int k = 0; k < flips; ++k) {
              const std::uint64_t bit = channel.corruption_word(
                  f.vehicle, frame,
                  0x10000 + oi * 64 + static_cast<std::uint64_t>(k));
              const std::size_t pos = bit % (o.wire.bytes.size() * 8);
              o.wire.bytes[pos / 8] ^= static_cast<std::uint8_t>(1u << (pos % 8));
            }
          }
          break;
        }
        case net::CorruptionKind::kTruncate:
          truncate_objects(f);
          break;
        case net::CorruptionKind::kDuplicate:
          duplicates.push_back(f);
          break;
        case net::CorruptionKind::kStaleReplay: {
          const auto it = last_clean.find(f.vehicle);
          if (it != last_clean.end()) {
            f = it->second;  // yesterday's news arrives instead
          } else {
            truncate_objects(f);
          }
          break;
        }
      }
    }
    if (cache_replay) last_clean[f.vehicle] = std::move(clean);
  }
  for (net::UploadFrame& d : duplicates) delivered.push_back(std::move(d));
  return corrupted;
}

std::size_t total_bytes(const std::vector<net::UploadFrame>& frames) {
  std::size_t n = 0;
  for (const net::UploadFrame& f : frames) n += f.total_bytes();
  return n;
}

// Every counter a pipeline frame books, one row each: the id the derivation
// reads it back by, the registry name, and the amount, over for_each_count's
// views `fan`, `up`, `edge`, `in`, `svc` and `down` of the frame's ledger.
#define ERPD_FRAME_COUNTERS(X)                                                \
  X(raw_points, "client.raw_points", fan.raw_points)                          \
  X(client_bytes, "client.upload_bytes", fan.uploaded_bytes)                  \
  X(client_dbscan, "client.dbscan_distance_tests", fan.dbscan_distance_tests) \
  X(offered_frames, "uplink.offered_frames", up.offered_frames)               \
  X(offered_bytes, "uplink.offered_bytes", up.offered_bytes)                  \
  X(delivered_bytes, "uplink.delivered_bytes", up.delivered_bytes)            \
  X(lost_bytes, "uplink.lost_bytes", up.lost_bytes)                           \
  X(capped_bytes, "uplink.capped_bytes", up.capped_bytes)                     \
  X(suppressed_bytes, "uplink.suppressed_bytes", fan.suppressed_bytes)        \
  X(backpressure_bytes, "uplink.backpressure_bytes", up.backpressure_bytes)   \
  X(backpressure_ups, "service.backpressure_uploads", up.backpressure_frames) \
  X(up_lost_msgs, "net.uplink_lost_msgs", up.lost_frames)                     \
  X(up_corrupted, "net.uplink_corrupted_msgs", up.corrupted_msgs)             \
  X(down_lost_msgs, "net.downlink_lost_msgs", down.lost_msgs)                 \
  X(down_corrupted, "net.downlink_corrupted_msgs", down.corrupted_msgs)       \
  X(deadline_miss, "net.downlink_deadline_miss", down.deadline_miss_msgs)     \
  X(delivered_msgs, "diss.delivered_msgs", down.delivered_msgs)               \
  X(feedback_lost, "coverage.feedback_lost_msgs", down.feedback_lost_msgs)    \
  X(pipeline_frames, "frames.pipeline", 1)                                    \
  X(downlink_bytes, "downlink.bytes", edge.downlink_bytes)                    \
  X(selected_msgs, "diss.selected_msgs", edge.selected.size())                \
  X(detections, "edge.detections", edge.detections)                           \
  X(edge_dbscan, "edge.dbscan_distance_tests", edge.dbscan_distance_tests)    \
  X(route_projections, "edge.route_projections", edge.route_projections)      \
  X(confirmed_tracks, "edge.confirmed_tracks", edge.confirmed_tracks)         \
  X(moving_tracks, "edge.moving_tracks", edge.moving_tracks)                  \
  X(coasting_tracks, "edge.coasting_tracks", edge.coasting_tracks)            \
  X(candidates, "edge.candidates", edge.candidates)                           \
  X(relevance_pairs, "edge.relevance_pairs", edge.relevance.pairs)            \
  X(estimates, "edge.collision_estimates", edge.relevance.estimates)          \
  X(hits, "edge.collision_hits", edge.relevance.hits)                         \
  X(stale_candidates, "edge.stale_candidates", edge.stale_candidates)         \
  X(feedback_msgs, "coverage.feedback_msgs", edge.feedback.size())            \
  X(feedback_bytes, "coverage.feedback_bytes", edge.feedback_bytes)           \
  X(rejected_crc, "ingest.rejected_crc", in.rejected_crc)                     \
  X(rejected_sem, "ingest.rejected_semantic", in.rejected_semantic)           \
  X(quarantined, "ingest.quarantined_vehicles", in.quarantine_events)         \
  X(q_dropped, "ingest.quarantine_dropped_frames", in.quarantine_dropped)     \
  X(shed_uploads, "ingest.shed_uploads", in.shed_uploads)                     \
  X(arrived, "service.arrived_objects", svc.arrived_objects)                  \
  X(admitted, "service.admitted_objects", svc.admitted_objects)               \
  X(deferred, "service.deferred_objects", svc.deferred_objects)               \
  X(shed_objects, "service.shed_objects", svc.shed_objects)                   \
  X(granted_ns, "service.budget_granted_ns", svc.admitted_cost)               \
  X(denied_ns, "service.budget_denied_ns", svc.denied_cost)

enum class Count : std::size_t {
#define ERPD_COUNT_ID(id, name, amount) id,
  ERPD_FRAME_COUNTERS(ERPD_COUNT_ID)
#undef ERPD_COUNT_ID
  kSize
};

/// The run registry and its one booking site (DESIGN.md §11): nothing else
/// adds to a counter. Stages and components return tallies; the ledger books
/// them, serially on the runner's thread. Resolving every counter up front
/// also registers it, so a run's registry lists the full set, zeros
/// included. The registry is merged into `into` (if set) on every exit from
/// run(), a thrown ContractViolation included.
class Ledger {
 public:
  explicit Ledger(obs::MetricsRegistry* into)
      : into_(into),
        occlusion_ray_tests_(reg.counter("sim.occlusion_ray_tests")),
        upload_(reg.histogram("sim.upload")),
        downlink_(reg.histogram("sim.downlink")) {
    std::size_t i = 0;
    for_each_count(FrameTrace{}, [&](const char* name, std::uint64_t) {
      counters_[i++] = &reg.counter(name);
    });
  }
  ~Ledger() {
    if (into_ != nullptr) into_->merge(reg);
  }

  /// Book one pipeline frame, before on_frame sees it.
  void book(const FrameTrace& tr) {
    std::size_t i = 0;
    for_each_count(tr, [&](const char*, std::uint64_t amount) {
      counters_[i++]->add(amount);
    });
    upload_.record_seconds(tr.up.t_upload);
    downlink_.record_seconds(tr.down.t_down);
    upload_seconds += tr.up.t_upload;
    downlink_seconds += tr.down.t_down;
    relevance = tr.down.relevance_total;
  }
  /// Book one world step (after its frame's on_frame).
  void book(const sim::StepStats& step) {
    occlusion_ray_tests_.add(step.occlusion_ray_tests);
  }

  std::uint64_t value(Count c) const {
    return counters_[static_cast<std::size_t>(c)]->value();
  }

  obs::MetricsRegistry reg;
  // What a counter cannot hold exactly, summed in frame order: the two
  // simulated transfer delays and the run's delivered relevance.
  double upload_seconds{0.0};
  double downlink_seconds{0.0};
  double relevance{0.0};

 private:
  obs::MetricsRegistry* into_;
  std::array<obs::Counter*, static_cast<std::size_t>(Count::kSize)> counters_;
  obs::Counter& occlusion_ray_tests_;
  obs::Histogram& upload_;
  obs::Histogram& downlink_;
};

/// The frame stages and the state they carry between frames. Each stage
/// fills or returns its tally and touches the registry only through its
/// StageSpan.
class FrameStages {
 public:
  FrameStages(const RunnerConfig& cfg, sim::World& world,
              obs::MetricsRegistry& reg)
      : cfg_(cfg), world_(world), reg_(reg), channel_(cfg.fault) {
    client_cfg_.metrics = &reg;
    // make_upload's working memory, one per pool lane: a lane runs one
    // client at a time, and the scratch carries capacity only (§20).
    while (lane_scratch_.size() < core::thread_count()) {
      lane_scratch_.push_back(core::borrow_scratch<ClientScratch>());
    }
  }

  /// Connected vehicles sense, extract and encode their uploads, one slot
  /// per uploading vehicle in client order.
  std::vector<net::UploadFrame> sense_fanout(
      const std::vector<sim::AgentSnapshot>& truth, ClientFrameStats* tally) {
    const sim::RoadNetwork& net = world_.network();
    // A connected vehicle gets its client when it first appears: the
    // initial fleet at frame 0, World::schedule_vehicle's spawns later.
    for (const sim::Vehicle& v : world_.vehicles()) {
      if (v.params().connected && !v.params().parked &&
          !clients_.contains(v.id())) {
        clients_.emplace(v.id(), VehicleClient(v.id(), client_cfg_));
      }
    }
    std::vector<geom::Vec2> sites;
    std::vector<sim::AgentId> site_ids;
    for (auto& [vid, client] : clients_) {
      const sim::Vehicle* v = world_.find_vehicle(vid);
      if (v == nullptr || v->finished(net) || v->crashed()) continue;
      // Disconnected vehicles neither sense-for-upload nor count as Voronoi
      // sites; on reconnect the local pipeline restarts because its
      // frame-differencing baseline is stale.
      const bool off = channel_.vehicle_offline(vid, world_.time());
      bool& was_off = offline_prev_[vid];
      if (was_off && !off) client.reset_pipeline();
      was_off = off;
      if (off) continue;
      sites.push_back(v->position(net));
      site_ids.push_back(vid);
    }
    const geom::VoronoiPartition voronoi(sites);

    // Each task reads the (const) world and the shared snapshot and mutates
    // only its own client and output slot, so reading the slots in site
    // order afterwards is identical to the serial loop for any thread count.
    // stage.fanout is the wall time of the whole parallel region; the
    // per-vehicle scan and extraction costs are recorded inside make_upload
    // (stage.sense / stage.extract).
    std::vector<ClientFrameStats> stats(site_ids.size());
    std::vector<net::UploadFrame> slots(site_ids.size());
    {
      obs::StageSpan fanout_span(&reg_, "stage.fanout");
      core::parallel_for(site_ids.size(), 1, [&](std::size_t i) {
        slots[i] = clients_.at(site_ids[i])
                       .make_upload(world_, &voronoi, i, &stats[i], &truth,
                                    lane_scratch_.at(core::current_lane())
                                        .get());
      });
    }
    for (const ClientFrameStats& s : stats) {
      tally->raw_points += s.raw_points;
      tally->uploaded_bytes += s.uploaded_bytes;
      tally->suppressed_bytes += s.suppressed_bytes;
      tally->dbscan_distance_tests += s.dbscan_distance_tests;
    }
    return slots;
  }

  /// The uplink fates of the offered `slots`; returns what reaches the edge.
  std::vector<net::UploadFrame> uplink_fates(
      int frame, std::vector<net::UploadFrame> slots, UplinkTally* u) {
    // Every offered byte gets exactly one fate: lost to channel faults,
    // dropped as backpressure by the service-mode drain cap (the first
    // queue_drain_max surviving frames go on), shed by the shared cap, or
    // delivered. (Bytes the redundancy layer avoided sending were never
    // offered; the fan-out tallies them as suppressed.) Loss is a pure
    // (seed, vehicle, frame) hash, so deciding it serially here is
    // thread-count-independent.
    const double t = world_.time();
    const std::size_t drain_max =
        cfg_.service.enabled ? cfg_.service.queue_drain_max : 0;
    u->offered_frames = slots.size();
    std::vector<net::UploadFrame> uploads;
    uploads.reserve(slots.size());
    std::size_t cap_offered_bytes = 0;
    for (net::UploadFrame& f : slots) {
      const std::size_t bytes = f.total_bytes();
      u->offered_bytes += bytes;
      if (channel_.uplink_lost(f.vehicle, frame, t)) {
        // A lost frame never reaches the edge nor consumes cap budget.
        ++u->lost_frames;
        u->lost_bytes += bytes;
      } else if (drain_max != 0 && uploads.size() >= drain_max) {
        ++u->backpressure_frames;
        u->backpressure_bytes += bytes;
      } else {
        cap_offered_bytes += bytes;
        uploads.push_back(std::move(f));
      }
    }
    if (cfg_.method == Method::kEmp || cfg_.method == Method::kOurs) {
      uploads = apply_uplink_cap(std::move(uploads),
                                 cfg_.wireless.uplink_budget_bytes(),
                                 static_cast<std::size_t>(frame));
    }
    // Cap shedding is measured before wire faults: corruption can *add*
    // bytes (duplicated frames), never to be mistaken for negative shedding.
    u->delivered_pre_fault_bytes = total_bytes(uploads);
    ERPD_ENSURE(u->delivered_pre_fault_bytes <= cap_offered_bytes,
                "uplink cap delivered ", u->delivered_pre_fault_bytes,
                " bytes of the ", cap_offered_bytes, " offered to it");
    u->capped_bytes = cap_offered_bytes - u->delivered_pre_fault_bytes;
    // Corruption and Byzantine senders hit what crosses the wire (post-cap):
    // mangled payloads travel as ObjectUpload::wire buffers the edge must
    // validate with pc::try_decode; duplicated/replayed frames consume
    // downstream bytes like any other transmission.
    u->corrupted_msgs = apply_wire_faults(uploads, channel_, frame, t,
                                          client_cfg_.encoding, replay_cache_);
    u->delivered_bytes = total_bytes(uploads);
    u->t_upload = net::transfer_delay(u->delivered_bytes,
                                      cfg_.wireless.uplink_mbps) +
                  channel_.uplink_jitter(frame);
    return uploads;
  }

  /// Delivers the edge's messages; `relevance_before` is the run's delivered
  /// relevance so far.
  DownlinkTally downlink_fates(int frame, const FrameOutput& fo,
                               double relevance_before) {
    // Each selected message independently survives the lossy downlink and
    // must land within the configured deadline. Exactly one fate per
    // message: lost, else corrupted (fails the receiver's integrity check),
    // else past the deadline, else delivered. Only delivered messages reach
    // driver knowledge.
    const double t = world_.time();
    DownlinkTally d{.relevance_total = relevance_before};
    double max_jitter = 0.0;
    for (const net::Dissemination& msg : fo.selected) {
      if (channel_.downlink_lost(msg.to, msg.track_id, frame, t)) {
        ++d.lost_msgs;
        continue;
      }
      if (channel_.downlink_corrupted(msg.to, msg.track_id, frame)) {
        ++d.corrupted_msgs;
        continue;
      }
      const double jit = channel_.downlink_jitter(msg.to, msg.track_id, frame);
      max_jitter = std::max(max_jitter, jit);
      const double delay =
          net::transfer_delay(msg.bytes, cfg_.wireless.downlink_mbps) + jit;
      if (cfg_.fault.downlink_deadline > 0.0 &&
          delay > cfg_.fault.downlink_deadline) {
        ++d.deadline_miss_msgs;
        continue;
      }
      if (msg.about != sim::kInvalidAgent) {
        world_.notify_vehicle(msg.to, msg.about);
      }
      d.relevance_total += msg.relevance;
      ++d.delivered_msgs;
    }
    // Coverage feedback rides the same lossy downlink: a dropped message
    // leaves the vehicle's last feedback in place until it ages out
    // (kMaxFeedbackAge), after which the vehicle uploads everything again.
    for (const net::CoverageFeedback& fb : fo.feedback) {
      if (channel_.feedback_lost(fb.to, frame, t)) {
        ++d.feedback_lost_msgs;
        continue;
      }
      const auto it = clients_.find(fb.to);
      if (it != clients_.end()) it->second.receive_feedback(fb);
    }
    d.t_down = net::transfer_delay(fo.downlink_bytes + fo.feedback_bytes,
                                   cfg_.wireless.downlink_mbps) +
               max_jitter;
    return d;
  }

 private:
  const RunnerConfig& cfg_;
  sim::World& world_;
  obs::MetricsRegistry& reg_;
  ClientConfig client_cfg_ = cfg_.client;
  // Every fate is asked of the channel; a default FaultConfig answers "no
  // fault" to each question, so the run is bit-identical to the lossless
  // pipeline.
  net::LossyChannel channel_;
  std::map<sim::AgentId, VehicleClient> clients_;
  // Who was offline last frame, to reset their pipelines on reconnect.
  std::map<sim::AgentId, bool> offline_prev_;
  // Each vehicle's previous delivered (clean) frame, for stale-replay
  // corruption; only kept while corruption is active.
  std::map<sim::AgentId, net::UploadFrame> replay_cache_;
  std::vector<std::shared_ptr<ClientScratch>> lane_scratch_;
};

/// After the frame loop: safety from the world, every count, byte and ratio
/// from the ledger's counters, and the thread-pool gauges.
MethodMetrics finalize(const sim::Scenario& sc, const RunnerConfig& cfg,
                       Ledger& ledger, const EdgeServer& server,
                       const core::PoolStats& pool_start) {
  const sim::World& world = sc.world;
  const sim::RoadNetwork& net = world.network();
  MethodMetrics m;
  int entered = 0;
  int safe = 0;
  for (const sim::Vehicle& v : world.vehicles()) {
    if (v.params().parked) continue;
    const sim::Route& route = net.route(v.route_id());
    const bool reached_box = v.s() >= route.box_entry_s;
    const bool crashed = world.agent_crashed(v.id());
    if (reached_box || crashed) {
      ++entered;
      if (!crashed) ++safe;
    }
  }
  m.vehicles_entered = entered;
  m.vehicles_safe = safe;
  m.safe_passage_rate =
      entered > 0 ? static_cast<double>(safe) / entered : 1.0;
  m.ego_safe = !world.agent_crashed(sc.ego);
  m.follower_safe = sc.ego_follower == sim::kInvalidAgent ||
                    !world.agent_crashed(sc.ego_follower);
  m.follower_min_gap =
      sc.ego_follower == sim::kInvalidAgent
          ? std::numeric_limits<double>::infinity()
          : world.min_pair_distance(sc.ego_follower, sc.ego);
  {
    int pair = 0;
    int pair_safe = 0;
    for (sim::AgentId id : {sc.ego, sc.threat}) {
      if (id == sim::kInvalidAgent) continue;
      ++pair;
      if (!world.agent_crashed(id)) ++pair_safe;
    }
    m.conflict_safe_rate = pair > 0 ? static_cast<double>(pair_safe) / pair : 1.0;
  }
  m.collisions = static_cast<int>(world.collisions().size());
  m.min_key_distance = world.min_pair_distance(sc.ego, sc.threat);

  // Counters are exact integer sums; the floating-point operation order
  // below is pinned by the behaviour fingerprints.
  using enum Count;
  const auto count = [&](Count c) {
    return static_cast<double>(ledger.value(c));
  };
  const std::uint64_t frames = ledger.value(pipeline_frames);
  const double up_bytes = count(delivered_bytes);
  const double down_bytes =
      static_cast<double>(ledger.value(downlink_bytes) +
                          ledger.value(feedback_bytes));
  m.uplink_mbps = up_bytes * 8.0 / 1e6 / cfg.duration;
  m.downlink_mbps = down_bytes * 8.0 / 1e6 / cfg.duration;
  m.delivered_relevance = ledger.relevance;
  if (frames > 0) {
    const double n = static_cast<double>(frames);
    const double offered = count(offered_bytes);
    m.uplink_bytes_per_frame = up_bytes / n;
    m.downlink_bytes_per_frame = down_bytes / n;
    m.uplink_offered_bytes_per_frame = offered / n;
    m.uplink_drop_ratio =
        offered > 0.0 ? (count(lost_bytes) + count(capped_bytes)) / offered
                      : 0.0;
    m.uplink_suppressed_bytes_per_frame = count(suppressed_bytes) / n;
    m.uplink_capped_bytes_per_frame = count(capped_bytes) / n;
    m.uplink_lost_bytes_per_frame = count(lost_bytes) / n;
    m.uplink_backpressure_bytes_per_frame = count(backpressure_bytes) / n;
    m.avg_objects_detected = count(moving_tracks) / n;
    m.upload_seconds = ledger.upload_seconds / n;
    m.downlink_transfer_seconds = ledger.downlink_seconds / n;
  }
  if (ledger.value(offered_frames) > 0) {
    m.uplink_loss_ratio = count(up_lost_msgs) / count(offered_frames);
  }
  const std::uint64_t selected = ledger.value(selected_msgs);
  if (selected > 0) {
    m.downlink_deadline_miss_ratio =
        static_cast<double>(selected - ledger.value(delivered_msgs)) /
        static_cast<double>(selected);
  }
  const auto as_int = [&](Count c) {
    return static_cast<int>(ledger.value(c));
  };
  m.disseminations = as_int(selected_msgs);
  m.coasted_track_frames = as_int(coasting_tracks);
  m.stale_relevance_frames = as_int(stale_candidates);
  m.ingest_rejected_crc = as_int(rejected_crc);
  m.ingest_rejected_semantic = as_int(rejected_sem);
  m.ingest_quarantined_vehicles = as_int(quarantined);
  m.ingest_shed_uploads = as_int(shed_uploads);
  m.coverage_feedback_msgs = as_int(feedback_msgs);
  m.coverage_feedback_lost_msgs = as_int(feedback_lost);
  m.service_backpressure_uploads = as_int(backpressure_ups);
  m.service_arrived_objects = as_int(arrived);
  m.service_admitted_objects = as_int(admitted);
  m.service_deferred_objects = as_int(deferred);
  m.service_shed_objects = as_int(shed_objects);
  if (cfg.service.enabled) {
    m.service_parked_residual = static_cast<int>(server.service_parked());
    // Run-level object-fate identity: every object that ever entered
    // deadline admission was admitted, shed, or is still parked. (Per-frame
    // the controller already ENSUREs arrived + carried == admitted +
    // deferred + shed; summing and cancelling the carried/deferred ledger
    // leaves this.)
    ERPD_ENSURE(m.service_arrived_objects == m.service_admitted_objects +
                                                 m.service_shed_objects +
                                                 m.service_parked_residual,
                "service object-fate identity leaked: arrived ",
                m.service_arrived_objects, " != admitted ",
                m.service_admitted_objects, " + shed ", m.service_shed_objects,
                " + parked ", m.service_parked_residual);
  }

  obs::MetricsRegistry& reg = ledger.reg;
  const core::PoolStats ps = core::global_pool().stats();
  reg.gauge("pool.workers").set(static_cast<double>(ps.workers));
  reg.gauge("pool.jobs").set(static_cast<double>(ps.jobs - pool_start.jobs));
  reg.gauge("pool.serial_jobs")
      .set(static_cast<double>(ps.serial_jobs - pool_start.serial_jobs));
  reg.gauge("pool.chunks")
      .set(static_cast<double>(ps.chunks - pool_start.chunks));
  reg.gauge("pool.max_job_chunks")
      .set(static_cast<double>(ps.max_job_chunks));
  // Per-lane executed chunks (lane 0 = the caller). Guard against a pool
  // rebuilt mid-run with a different width.
  for (std::size_t i = 0; i < ps.lane_chunks.size(); ++i) {
    const std::uint64_t before =
        i < pool_start.lane_chunks.size() ? pool_start.lane_chunks[i] : 0;
    char name[40];
    std::snprintf(name, sizeof name, "pool.lane_chunks.%02zu", i);
    reg.gauge(name).set(static_cast<double>(ps.lane_chunks[i] - before));
  }
  return m;
}

}  // namespace

void for_each_count(
    const FrameTrace& tr,
    const std::function<void(const char* name, std::uint64_t amount)>& f) {
  const ClientFrameStats& fan = tr.fanout;
  const UplinkTally& up = tr.up;
  const FrameOutput& edge = tr.edge;
  const IngestStats& in = edge.ingest;
  const ServiceStats& svc = edge.service;
  const DownlinkTally& down = tr.down;
#define ERPD_VISIT_COUNT(id, name, amount) \
  f(name, static_cast<std::uint64_t>(amount));
  ERPD_FRAME_COUNTERS(ERPD_VISIT_COUNT)
#undef ERPD_VISIT_COUNT
}

SystemRunner::SystemRunner(RunnerConfig cfg) : cfg_(cfg) {
  cfg_.wireless.validate();
  cfg_.fault.validate();
  // One source of truth: the method, the edge's downlink budget and both
  // ends of the link use the runner's settings.
  cfg_.client.method = cfg_.method;
  cfg_.edge.method = cfg_.method;
  cfg_.edge.wireless = cfg_.wireless;
  cfg_.client.redundancy = cfg_.redundancy;
  cfg_.edge.redundancy = cfg_.redundancy;
  cfg_.edge.service = cfg_.service;
  ERPD_REQUIRE(cfg_.duration > 0.0,
               "SystemRunner: duration must be > 0, got ", cfg_.duration);
}

MethodMetrics SystemRunner::run(sim::Scenario& sc) {
  sim::World& world = sc.world;
  // The run registry is the single source of every count MethodMetrics
  // reports (DESIGN.md §11): the ledger books into it, finalize derives from
  // it, and the caller's registry only receives a merged copy.
  Ledger ledger(cfg_.metrics);
  obs::MetricsRegistry& reg = ledger.reg;
  FrameStages stages(cfg_, world, reg);
  EdgeServer server(world.network(), cfg_.edge);
  server.attach_metrics(&reg);
  // Thread-pool scheduling counters are recorded as a start/end delta so a
  // shared global pool does not leak earlier runs' work into this run.
  const core::PoolStats pool_start = core::global_pool().stats();

  const int steps =
      static_cast<int>(std::llround(cfg_.duration / sim::kFrameInterval));
  for (int frame = 0; frame < steps; ++frame) {
    // Host time of the whole iteration: pipeline frame plus world step.
    obs::StageSpan frame_span(&reg, "host.frame");
    if (cfg_.method != Method::kSingle) {
      FrameTrace tr{.frame = frame};
      const std::vector<sim::AgentSnapshot> truth = world.snapshot();
      std::vector<net::UploadFrame> uploads =
          stages.sense_fanout(truth, &tr.fanout);
      uploads = stages.uplink_fates(frame, std::move(uploads), &tr.up);
      tr.edge = server.process_frame(std::move(uploads), world.time(), &truth);
      tr.down = stages.downlink_fates(frame, tr.edge, ledger.relevance);
      ledger.book(tr);
      if (cfg_.on_frame) cfg_.on_frame(tr);
    }
    ledger.book(world.step());
  }
  return finalize(sc, cfg_, ledger, server, pool_start);
}

}  // namespace erpd::edge
