#include "edge/system_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/check.hpp"
#include "core/thread_pool.hpp"
#include "obs/span.hpp"
#include "pointcloud/encoding.hpp"

namespace erpd::edge {

const char* to_string(Method m) {
  switch (m) {
    case Method::kSingle: return "Single";
    case Method::kEmp: return "EMP";
    case Method::kOurs: return "Ours";
    case Method::kUnlimited: return "Unlimited";
  }
  return "?";
}

RunnerConfig make_runner_config(Method method,
                                const net::WirelessConfig& wireless) {
  RunnerConfig rc;
  rc.method = method;
  rc.wireless = wireless;
  switch (method) {
    case Method::kSingle:
      break;
    case Method::kEmp:
      rc.client.policy = UploadPolicy::kEmpVoronoi;
      rc.edge.strategy = DisseminationStrategy::kRoundRobin;
      break;
    case Method::kOurs:
      rc.client.policy = UploadPolicy::kOursMovingObjects;
      rc.edge.strategy = DisseminationStrategy::kRelevanceGreedy;
      break;
    case Method::kUnlimited:
      rc.client.policy = UploadPolicy::kUnlimitedRaw;
      rc.edge.strategy = DisseminationStrategy::kBroadcast;
      // Effectively uncapped pipes.
      rc.wireless.uplink_mbps = 1e6;
      rc.wireless.downlink_mbps = 1e6;
      break;
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
    net::UploadFrame kept;
    kept.vehicle = f.vehicle;
    kept.pose = f.pose;
    kept.timestamp = f.timestamp;
    kept.upload_seq = f.upload_seq;
    for (net::ObjectUpload& obj : f.objects) {
      if (budget.try_grant(obj.bytes)) {
        kept.objects.push_back(std::move(obj));
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
          kept.objects.push_back(std::move(part));
        }
      }
      // Object-granular uploads: this object is simply lost this frame.
    }
    if (!kept.objects.empty()) out.push_back(std::move(kept));
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

/// Every counter the runner books, resolved once per run. Resolving also
/// registers each name, so a run's registry always lists the full set, zeros
/// included. The runner is the only booking site: components return tallies
/// (ClientFrameStats, FrameOutput, the channel's fate predicates) and the
/// runner books them, serially on its own thread.
struct RunCounters {
  obs::MetricsRegistry& r;
  // Vehicle fan-out.
  obs::Counter& raw_points = r.counter("client.raw_points");
  obs::Counter& client_bytes = r.counter("client.upload_bytes");
  obs::Counter& client_dbscan_tests = r.counter("client.dbscan_distance_tests");
  // Uplink fates.
  obs::Counter& offered_frames = r.counter("uplink.offered_frames");
  obs::Counter& offered_bytes = r.counter("uplink.offered_bytes");
  obs::Counter& delivered_bytes = r.counter("uplink.delivered_bytes");
  obs::Counter& lost_bytes = r.counter("uplink.lost_bytes");
  obs::Counter& capped_bytes = r.counter("uplink.capped_bytes");
  obs::Counter& suppressed_bytes = r.counter("uplink.suppressed_bytes");
  obs::Counter& backpressure_bytes = r.counter("uplink.backpressure_bytes");
  obs::Counter& backpressure_frames = r.counter("service.backpressure_uploads");
  obs::Counter& up_lost_msgs = r.counter("net.uplink_lost_msgs");
  obs::Counter& up_corrupted_msgs = r.counter("net.uplink_corrupted_msgs");
  // Downlink fates.
  obs::Counter& down_lost_msgs = r.counter("net.downlink_lost_msgs");
  obs::Counter& down_corrupted_msgs = r.counter("net.downlink_corrupted_msgs");
  obs::Counter& deadline_miss = r.counter("net.downlink_deadline_miss");
  obs::Counter& delivered_msgs = r.counter("diss.delivered_msgs");
  obs::Counter& feedback_lost_msgs = r.counter("coverage.feedback_lost_msgs");
  // Edge output (FrameOutput).
  obs::Counter& pipeline_frames = r.counter("frames.pipeline");
  obs::Counter& downlink_bytes = r.counter("downlink.bytes");
  obs::Counter& selected_msgs = r.counter("diss.selected_msgs");
  obs::Counter& selected_bytes = r.counter("diss.selected_bytes");
  obs::Counter& detections = r.counter("edge.detections");
  obs::Counter& edge_dbscan_tests = r.counter("edge.dbscan_distance_tests");
  obs::Counter& confirmed_tracks = r.counter("edge.confirmed_tracks");
  obs::Counter& moving_tracks = r.counter("edge.moving_tracks");
  obs::Counter& coasting_tracks = r.counter("edge.coasting_tracks");
  obs::Counter& candidates = r.counter("edge.candidates");
  obs::Counter& relevance_pairs = r.counter("edge.relevance_pairs");
  obs::Counter& collision_estimates = r.counter("edge.collision_estimates");
  obs::Counter& collision_hits = r.counter("edge.collision_hits");
  obs::Counter& stale_candidates = r.counter("edge.stale_candidates");
  obs::Counter& feedback_msgs = r.counter("coverage.feedback_msgs");
  obs::Counter& feedback_bytes = r.counter("coverage.feedback_bytes");
  obs::Counter& rejected_crc = r.counter("ingest.rejected_crc");
  obs::Counter& rejected_semantic = r.counter("ingest.rejected_semantic");
  obs::Counter& quarantined = r.counter("ingest.quarantined_vehicles");
  obs::Counter& quarantine_dropped =
      r.counter("ingest.quarantine_dropped_frames");
  obs::Counter& shed_uploads = r.counter("ingest.shed_uploads");
  obs::Counter& arrived_objects = r.counter("service.arrived_objects");
  obs::Counter& admitted_objects = r.counter("service.admitted_objects");
  obs::Counter& deferred_objects = r.counter("service.deferred_objects");
  obs::Counter& shed_objects = r.counter("service.shed_objects");
  obs::Counter& budget_granted = r.counter("service.budget_granted_ns");
  obs::Counter& budget_denied = r.counter("service.budget_denied_ns");
  // Simulator (World::step's StepStats).
  obs::Counter& occlusion_ray_tests = r.counter("sim.occlusion_ray_tests");

  /// Book one edge frame: everything process_frame tallied.
  void book(const FrameOutput& fo) {
    pipeline_frames.add();
    downlink_bytes.add(fo.downlink_bytes);
    selected_msgs.add(fo.selected.size());
    selected_bytes.add(fo.downlink_bytes);
    detections.add(fo.detections);
    edge_dbscan_tests.add(fo.dbscan_distance_tests);
    confirmed_tracks.add(fo.confirmed_tracks);
    moving_tracks.add(fo.moving_tracks);
    coasting_tracks.add(fo.coasting_tracks);
    candidates.add(fo.candidates);
    relevance_pairs.add(fo.relevance.pairs);
    collision_estimates.add(fo.relevance.estimates);
    collision_hits.add(fo.relevance.hits);
    stale_candidates.add(fo.stale_candidates);
    feedback_msgs.add(fo.feedback.size());
    feedback_bytes.add(fo.feedback_bytes);
    rejected_crc.add(fo.ingest.rejected_crc);
    rejected_semantic.add(fo.ingest.rejected_semantic);
    quarantined.add(fo.ingest.quarantine_events);
    quarantine_dropped.add(fo.ingest.quarantine_dropped);
    shed_uploads.add(fo.ingest.shed_uploads);
    arrived_objects.add(fo.service.arrived_objects);
    admitted_objects.add(fo.service.admitted_objects);
    deferred_objects.add(fo.service.deferred_objects);
    shed_objects.add(fo.service.shed_objects);
    budget_granted.add(fo.service.admitted_cost);
    budget_denied.add(fo.service.denied_cost);
  }
};

/// Merges the run registry into the caller's on every exit from run(), a
/// thrown ContractViolation included, so a violated run still reports what
/// it recorded.
struct MergeOnExit {
  const obs::MetricsRegistry& from;
  obs::MetricsRegistry* into;
  ~MergeOnExit() {
    if (into != nullptr) into->merge(from);
  }
};

/// Counter value as a double, for the MethodMetrics ratios.
double count(const obs::Counter& c) { return static_cast<double>(c.value()); }

}  // namespace

SystemRunner::SystemRunner(RunnerConfig cfg) : cfg_(cfg) {
  cfg_.wireless.validate();
  cfg_.fault.validate();
  // One source of truth: the edge's downlink budget and both ends of the
  // link use the runner's settings.
  cfg_.edge.wireless = cfg_.wireless;
  cfg_.client.redundancy = cfg_.redundancy;
  cfg_.edge.redundancy = cfg_.redundancy;
  cfg_.edge.service = cfg_.service;
  ERPD_REQUIRE(cfg_.duration > 0.0,
               "SystemRunner: duration must be > 0, got ", cfg_.duration);
}

MethodMetrics SystemRunner::run(sim::Scenario& sc) {
  sim::World& world = sc.world;
  const sim::RoadNetwork& net = world.network();

  // The run registry is the single source of every count MethodMetrics
  // reports (DESIGN.md §11): the loop books into it, the end of the run
  // derives from it, and the caller's registry only receives a merged copy.
  obs::MetricsRegistry reg;
  const MergeOnExit merge_on_exit{reg, cfg_.metrics};
  RunCounters ctr{reg};
  obs::Histogram& upload_hist = reg.histogram("sim.upload");
  obs::Histogram& downlink_hist = reg.histogram("sim.downlink");

  ClientConfig client_cfg = cfg_.client;
  client_cfg.metrics = &reg;

  std::map<sim::AgentId, VehicleClient> clients;
  if (cfg_.method != Method::kSingle) {
    for (const sim::Vehicle& v : world.vehicles()) {
      if (v.params().connected && !v.params().parked) {
        clients.emplace(v.id(), VehicleClient(v.id(), client_cfg));
      }
    }
  }

  // make_upload's working memory, one per pool lane: a lane runs one client
  // at a time, and the scratch carries capacity only (DESIGN.md §20).
  std::vector<std::shared_ptr<ClientScratch>> lane_scratch;
  while (lane_scratch.size() < core::thread_count()) {
    lane_scratch.push_back(core::borrow_scratch<ClientScratch>());
  }

  EdgeServer server(net, cfg_.edge);
  server.attach_metrics(&reg);
  // Thread-pool scheduling counters are recorded as a start/end delta so a
  // shared global pool does not leak earlier runs' work into this run.
  const core::PoolStats pool_start = core::global_pool().stats();

  MethodMetrics m;
  // Simulated transfer delays, summed in frame order: the registry's
  // nanosecond histograms cannot hold them exactly.
  double sum_upload = 0.0;
  double sum_downlink = 0.0;

  // Fault injection. Every fate below is asked of the channel; a default
  // FaultConfig answers "no fault" to each question, so the run is
  // bit-identical to the lossless pipeline.
  net::LossyChannel channel(cfg_.fault);
  // Tracks which clients were offline last pipeline frame, to reset their
  // local pipeline state on reconnect.
  std::map<sim::AgentId, bool> offline_prev;
  // Per-vehicle cache of the previously delivered (clean) upload frame, fed
  // to stale-replay corruption. Only maintained while corruption is active.
  std::map<sim::AgentId, net::UploadFrame> replay_cache;

  const int steps =
      static_cast<int>(std::llround(cfg_.duration / world.config().dt));
  const bool capped = cfg_.method == Method::kEmp || cfg_.method == Method::kOurs;
  const bool service_mode = cfg_.service.enabled;

  for (int frame = 0; frame < steps; ++frame) {
    // Host time of the whole iteration: pipeline frame plus world step.
    obs::StageSpan frame_span(&reg, "host.frame");
    if (cfg_.method != Method::kSingle) {
      // Deferred spawns (World::schedule_vehicle) may have materialized
      // since the last pipeline frame; give each new connected vehicle a
      // client. For scenarios without deferred spawns this inserts nothing,
      // so the pre-existing behavior is unchanged.
      for (const sim::Vehicle& v : world.vehicles()) {
        if (v.params().connected && !v.params().parked &&
            !clients.contains(v.id())) {
          clients.emplace(v.id(), VehicleClient(v.id(), client_cfg));
        }
      }
      // --- Vehicle-side sensing & extraction ---
      std::vector<geom::Vec2> sites;
      std::vector<sim::AgentId> site_ids;
      for (auto& [vid, client] : clients) {
        const sim::Vehicle* v = world.find_vehicle(vid);
        if (v == nullptr || v->finished(net) || v->crashed()) continue;
        // Disconnected vehicles neither sense-for-upload nor count as
        // Voronoi sites; on reconnect the local pipeline restarts because its
        // frame-differencing baseline is stale.
        const bool off = channel.vehicle_offline(vid, world.time());
        bool& was_off = offline_prev[vid];
        if (was_off && !off) client.reset_pipeline();
        was_off = off;
        if (off) continue;
        sites.push_back(v->position(net));
        site_ids.push_back(vid);
      }
      const geom::VoronoiPartition voronoi(sites);

      // Sensing + extraction fans out across vehicles: each task reads the
      // (const) world and mutates only its own client and its own output
      // slot, so reading the slots in site order afterwards is identical to
      // the serial loop for any thread count. The snapshot is hoisted out so
      // N clients share one copy (world state does not change within a
      // frame). stage.fanout is the wall time of the whole parallel region;
      // the per-vehicle scan and extraction costs are recorded inside
      // make_upload (stage.sense / stage.extract).
      const std::vector<sim::AgentSnapshot> truth = world.snapshot();
      std::vector<ClientFrameStats> stats(site_ids.size());
      std::vector<net::UploadFrame> slots(site_ids.size());
      {
        obs::StageSpan fanout_span(&reg, "stage.fanout");
        core::parallel_for(site_ids.size(), 1, [&](std::size_t i) {
          slots[i] = clients.at(site_ids[i])
                         .make_upload(world, &voronoi, i, &stats[i], &truth,
                                      lane_scratch.at(core::current_lane())
                                          .get());
        });
      }
      for (const ClientFrameStats& s : stats) {
        ctr.raw_points.add(s.raw_points);
        ctr.client_bytes.add(s.uploaded_bytes);
        ctr.suppressed_bytes.add(s.suppressed_bytes);
        ctr.client_dbscan_tests.add(s.dbscan_distance_tests);
      }

      // --- Uplink fates, booked in slot order ---
      // Every offered byte gets exactly one fate this frame: lost to channel
      // faults, dropped as backpressure by the service-mode drain cap (the
      // first queue_drain_max surviving frames reach the edge), shed by the
      // shared cap, or delivered. (Bytes the redundancy layer avoided sending
      // were never offered; they are booked separately as suppressed.)
      // Loss is a pure (seed, vehicle, frame) hash, so booking it serially
      // here is thread-count-independent.
      const std::size_t drain_max =
          service_mode ? cfg_.service.queue_drain_max : 0;
      std::size_t offered_bytes = 0;
      std::size_t lost_bytes = 0;
      std::size_t backpressure_bytes = 0;
      std::vector<net::UploadFrame> uploads;
      uploads.reserve(slots.size());
      ctr.offered_frames.add(slots.size());
      for (net::UploadFrame& f : slots) {
        const std::size_t bytes = f.total_bytes();
        offered_bytes += bytes;
        if (channel.uplink_lost(f.vehicle, frame, world.time())) {
          // A lost upload frame never reaches the edge (and never consumes
          // cap budget).
          ctr.up_lost_msgs.add();
          lost_bytes += bytes;
        } else if (drain_max != 0 && uploads.size() >= drain_max) {
          ctr.backpressure_frames.add();
          backpressure_bytes += bytes;
        } else {
          uploads.push_back(std::move(f));
        }
      }

      // --- Uplink cap ---
      std::vector<net::UploadFrame> delivered =
          capped ? apply_uplink_cap(std::move(uploads),
                                    cfg_.wireless.uplink_budget_bytes(),
                                    static_cast<std::size_t>(frame))
                 : std::move(uploads);

      // Cap shedding measured before wire faults: corruption can *add* bytes
      // (duplicated frames), which must never be mistaken for negative
      // shedding. This closes the fate partition exactly.
      std::size_t delivered_pre_faults = 0;
      for (const net::UploadFrame& f : delivered) {
        delivered_pre_faults += f.total_bytes();
      }
      ERPD_ENSURE(
          lost_bytes + backpressure_bytes + delivered_pre_faults <=
              offered_bytes,
          "uplink byte partition: lost ", lost_bytes, " + backpressure ",
          backpressure_bytes, " + delivered ", delivered_pre_faults,
          " exceeds offered ", offered_bytes);

      // --- Payload corruption & Byzantine senders ---
      // Applied to what actually crosses the wire (post-cap). Mangled
      // payloads travel as ObjectUpload::wire buffers the edge must validate
      // with pc::try_decode; duplicated/replayed frames consume downstream
      // bytes like any other transmission.
      ctr.up_corrupted_msgs.add(apply_wire_faults(delivered, channel, frame,
                                                  world.time(),
                                                  client_cfg.encoding,
                                                  replay_cache));

      std::size_t delivered_bytes = 0;
      for (const net::UploadFrame& f : delivered) {
        delivered_bytes += f.total_bytes();
      }
      ctr.offered_bytes.add(offered_bytes);
      ctr.delivered_bytes.add(delivered_bytes);
      ctr.lost_bytes.add(lost_bytes);
      ctr.capped_bytes.add(offered_bytes - lost_bytes - backpressure_bytes -
                           delivered_pre_faults);
      ctr.backpressure_bytes.add(backpressure_bytes);

      // --- Edge server ---
      const FrameOutput fo =
          server.process_frame(delivered, world.time(), &truth);
      ctr.book(fo);

      if (cfg_.on_decisions) cfg_.on_decisions(frame, fo.selected);

      // --- Deliver disseminations back to drivers ---
      // Each selected message independently survives the lossy downlink and
      // must land within the configured deadline. Exactly one fate per
      // message, booked once: lost, else corrupted (fails the receiver's
      // integrity check), else past the deadline, else delivered. Only
      // delivered messages reach driver knowledge.
      double max_down_jitter = 0.0;
      for (const net::Dissemination& d : fo.selected) {
        if (channel.downlink_lost(d.to, d.track_id, frame, world.time())) {
          ctr.down_lost_msgs.add();
          continue;
        }
        if (channel.downlink_corrupted(d.to, d.track_id, frame)) {
          ctr.down_corrupted_msgs.add();
          continue;
        }
        const double jit = channel.downlink_jitter(d.to, d.track_id, frame);
        max_down_jitter = std::max(max_down_jitter, jit);
        const double delay =
            net::transfer_delay(d.bytes, cfg_.wireless.downlink_mbps,
                                cfg_.wireless.base_latency) +
            jit;
        if (cfg_.fault.downlink_deadline > 0.0 &&
            delay > cfg_.fault.downlink_deadline) {
          ctr.deadline_miss.add();
          continue;
        }
        if (d.about != sim::kInvalidAgent) {
          world.notify_vehicle(d.to, d.about);
        }
        m.delivered_relevance += d.relevance;
        ctr.delivered_msgs.add();
      }
      // Coverage feedback rides the same lossy downlink: a dropped message
      // simply leaves the vehicle's last feedback in place until it ages out
      // (kMaxFeedbackAge), after which the vehicle uploads everything again.
      for (const net::CoverageFeedback& fb : fo.feedback) {
        if (channel.feedback_lost(fb.to, frame, world.time())) {
          ctr.feedback_lost_msgs.add();
          continue;
        }
        const auto it = clients.find(fb.to);
        if (it != clients.end()) it->second.receive_feedback(fb);
      }

      // --- Latency accounting ---
      const double t_upload =
          net::transfer_delay(delivered_bytes, cfg_.wireless.uplink_mbps,
                              cfg_.wireless.base_latency) +
          channel.uplink_jitter(frame);
      // The frame's dissemination completes when its slowest message lands.
      const double t_down = net::transfer_delay(
          fo.downlink_bytes + fo.feedback_bytes, cfg_.wireless.downlink_mbps,
          cfg_.wireless.base_latency) + max_down_jitter;
      sum_upload += t_upload;
      sum_downlink += t_down;
      upload_hist.record_seconds(t_upload);
      downlink_hist.record_seconds(t_down);

      if (cfg_.on_frame) {
        cfg_.on_frame(FrameTrace{frame});
      }
    }

    ctr.occlusion_ray_tests.add(world.step().occlusion_ray_tests);
  }

  // --- Safety metrics ---
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

  // --- Derive every count, byte and ratio from the run registry ---
  // Counters are exact integer sums; the floating-point operation order
  // below is pinned by the behaviour fingerprints.
  const std::uint64_t frames = ctr.pipeline_frames.value();
  const double up_bytes = count(ctr.delivered_bytes);
  const double down_bytes = static_cast<double>(ctr.downlink_bytes.value() +
                                                ctr.feedback_bytes.value());
  m.uplink_mbps = up_bytes * 8.0 / 1e6 / cfg_.duration;
  m.downlink_mbps = down_bytes * 8.0 / 1e6 / cfg_.duration;
  if (frames > 0) {
    const double n = static_cast<double>(frames);
    const double offered = count(ctr.offered_bytes);
    m.uplink_bytes_per_frame = up_bytes / n;
    m.downlink_bytes_per_frame = down_bytes / n;
    m.uplink_offered_bytes_per_frame = offered / n;
    m.uplink_drop_ratio =
        offered > 0.0
            ? (count(ctr.lost_bytes) + count(ctr.capped_bytes)) / offered
            : 0.0;
    m.uplink_suppressed_bytes_per_frame = count(ctr.suppressed_bytes) / n;
    m.uplink_capped_bytes_per_frame = count(ctr.capped_bytes) / n;
    m.uplink_lost_bytes_per_frame = count(ctr.lost_bytes) / n;
    m.uplink_backpressure_bytes_per_frame = count(ctr.backpressure_bytes) / n;
    m.avg_objects_detected = count(ctr.moving_tracks) / n;
    m.upload_seconds = sum_upload / n;
    m.downlink_transfer_seconds = sum_downlink / n;
  }
  if (ctr.offered_frames.value() > 0) {
    m.uplink_loss_ratio = count(ctr.up_lost_msgs) / count(ctr.offered_frames);
  }
  const std::uint64_t selected = ctr.selected_msgs.value();
  if (selected > 0) {
    m.downlink_deadline_miss_ratio =
        static_cast<double>(selected - ctr.delivered_msgs.value()) /
        static_cast<double>(selected);
  }
  const auto as_int = [](const obs::Counter& c) {
    return static_cast<int>(c.value());
  };
  m.disseminations = as_int(ctr.selected_msgs);
  m.coasted_track_frames = as_int(ctr.coasting_tracks);
  m.stale_relevance_frames = as_int(ctr.stale_candidates);
  m.ingest_rejected_crc = as_int(ctr.rejected_crc);
  m.ingest_rejected_semantic = as_int(ctr.rejected_semantic);
  m.ingest_quarantined_vehicles = as_int(ctr.quarantined);
  m.ingest_shed_uploads = as_int(ctr.shed_uploads);
  m.coverage_feedback_msgs = as_int(ctr.feedback_msgs);
  m.coverage_feedback_lost_msgs = as_int(ctr.feedback_lost_msgs);
  m.service_backpressure_uploads = as_int(ctr.backpressure_frames);
  m.service_arrived_objects = as_int(ctr.arrived_objects);
  m.service_admitted_objects = as_int(ctr.admitted_objects);
  m.service_deferred_objects = as_int(ctr.deferred_objects);
  m.service_shed_objects = as_int(ctr.shed_objects);
  if (service_mode) {
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

}  // namespace erpd::edge
