#pragma once
// Closed-loop evaluation harness (paper §IV).
//
// One pipeline frame is a chain of stages (paper Fig. 2), each returning its
// outputs and a plain tally: the sensing fan-out (connected vehicles sense,
// extract and encode), the uplink fates (channel loss, drain cap, shared
// uplink cap, wire faults), the edge (EdgeServer::process_frame: map,
// relevance, dissemination under the downlink cap) and the downlink fates
// (lossy, deadline-bound delivery back to drivers, who react one reaction
// time later). The tallies form the frame's FrameTrace, which the runner
// books into its registry at one site and hands to RunnerConfig::on_frame;
// then the world advances. The four evaluated methods are in
// edge/method.hpp.

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "edge/edge_server.hpp"
#include "edge/method.hpp"
#include "edge/vehicle_client.hpp"
#include "net/channel.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"

namespace erpd::edge {

/// Uplink fates of one frame. Every offered byte has exactly one fate:
/// offered = lost (channel faults) + backpressure (service-mode drain cap) +
/// capped (shared uplink cap) + delivered before wire faults. Wire faults
/// may add bytes (duplicated frames), so `delivered_bytes` is taken after
/// them; `corrupted_msgs` counts frames the channel corrupted (Byzantine
/// frames are not corruption). `t_upload` is the simulated transfer delay.
struct UplinkTally {
  std::size_t offered_frames{0};
  std::size_t offered_bytes{0};
  std::size_t lost_frames{0};
  std::size_t lost_bytes{0};
  std::size_t backpressure_frames{0};
  std::size_t backpressure_bytes{0};
  std::size_t capped_bytes{0};
  std::size_t delivered_pre_fault_bytes{0};
  std::size_t delivered_bytes{0};
  std::size_t corrupted_msgs{0};
  double t_upload{0.0};
};

/// Downlink fates of one frame. Each selected dissemination is lost,
/// corrupted, past the deadline or delivered; coverage feedback is lost or
/// delivered. `t_down` is the simulated transfer delay of the slowest
/// message.
struct DownlinkTally {
  std::size_t lost_msgs{0};
  std::size_t corrupted_msgs{0};
  std::size_t deadline_miss_msgs{0};
  std::size_t delivered_msgs{0};
  std::size_t feedback_lost_msgs{0};
  /// Relevance delivered over the run through this frame: a running total,
  /// summed message by message, since the behaviour fingerprint pins that
  /// order and per-frame subtotals would change it.
  double relevance_total{0.0};
  double t_down{0.0};
};

/// One pipeline frame's ledger: each stage's tally and the edge's output
/// (decisions as selected, before downlink faults). The runner books it at
/// one site (DESIGN.md §11), then hands it to RunnerConfig::on_frame. Host
/// times live in the registry's stage spans, not here.
struct FrameTrace {
  int frame{0};
  /// The sensing fan-out, summed over the frame's uploading clients.
  ClientFrameStats fanout{};
  UplinkTally up{};
  FrameOutput edge{};
  DownlinkTally down{};
};

/// Every counter a pipeline frame books, as (registry name, amount) pairs in
/// a fixed order; each name is spelled only there. Summed over a run's
/// frames they equal its registry counters, bar the world step's
/// `sim.occlusion_ray_tests`.
void for_each_count(
    const FrameTrace& tr,
    const std::function<void(const char* name, std::uint64_t amount)>& f);

struct RunnerConfig {
  /// The one method switch: the runner copies it into ClientConfig and
  /// EdgeConfig, so upload policy and dissemination strategy always match.
  Method method{Method::kOurs};
  /// The one link config: the runner copies it into EdgeConfig, whose
  /// downlink budget therefore always matches the runner's transfer delays.
  net::WirelessConfig wireless{};
  EdgeConfig edge{};
  ClientConfig client{};
  /// Simulated duration (seconds). The perception pipeline runs on every
  /// LiDAR frame (sim::kFrameInterval).
  double duration{25.0};
  /// Optional per-frame observer (the perf harness, the golden scenario):
  /// called from run() on the caller's thread with each pipeline frame's
  /// ledger, after the downlink fates are booked and before the world step.
  std::function<void(const FrameTrace&)> on_frame;
  /// Deterministic channel fault injection. The default config injects no
  /// fault: the run is bit-identical to the lossless pipeline.
  net::FaultConfig fault{};
  /// Redundancy-aware uplink (DESIGN.md §16). The runner copies this single
  /// source of truth into both ClientConfig and EdgeConfig so vehicle and
  /// edge are always switched together. Off by default: bit-identical runs.
  RedundancyConfig redundancy{};
  /// Service-mode edge pipeline (DESIGN.md §17): a drain cap between the
  /// sensing fan-out and the edge plus deadline-budget admission inside the
  /// edge. The runner copies this single source of truth into EdgeConfig.
  /// Off by default: bit-identical runs.
  ServiceConfig service{};
  /// Optional observability registry (not owned). Every run records into a
  /// run-local registry (stage spans, sim.* transfer delays, every fate and
  /// work counter, pool gauges; DESIGN.md §11) and derives MethodMetrics
  /// from it. When set, that registry is merged into this one as run()
  /// exits, on every path, a thrown ContractViolation included; a registry
  /// reused across runs therefore holds their sum. Recording is write-only:
  /// no decision ever reads a metric back.
  obs::MetricsRegistry* metrics{nullptr};
};

struct MethodMetrics {
  // Safety.
  int vehicles_entered{0};
  int vehicles_safe{0};
  /// Fraction of ALL vehicles that traversed the intersection without a
  /// collision (fleet-wide view).
  double safe_passage_rate{0.0};
  /// Fraction of the scripted conflict pair (ego, threat) passing safely —
  /// the paper's Fig. 10 metric ("Single" is 0% by construction: without
  /// sharing, the occluded conflict always ends in an accident).
  double conflict_safe_rate{0.0};
  bool ego_safe{true};
  /// Safety of the scripted tailgating follower (true when none exists).
  bool follower_safe{true};
  /// Minimum bumper gap between the tailgating follower and the ego over the
  /// run (inf when no follower). Shrinks toward 0 when the follower is not
  /// warned about the hazard the ego brakes for.
  double follower_min_gap{0.0};
  int collisions{0};
  double min_key_distance{0.0};  // ego-threat minimum distance
  // Bandwidth.
  double uplink_mbps{0.0};
  double downlink_mbps{0.0};
  double uplink_bytes_per_frame{0.0};
  double downlink_bytes_per_frame{0.0};
  /// Uplink bytes the fleet *offered* per pipeline frame, before the shared
  /// cap. With uplink_bytes_per_frame (delivered) this separates demand from
  /// goodput when the cap binds.
  double uplink_offered_bytes_per_frame{0.0};
  /// Fraction of offered uplink bytes that never reached the edge (lost to
  /// channel faults or shed by the cap), in [0, 1]. Exactly
  /// (lost + capped) / offered — see the per-frame byte partition below.
  double uplink_drop_ratio{0.0};
  // Map quality.
  double avg_objects_detected{0.0};
  // Simulated transfer latency (seconds, averaged over pipeline frames).
  // Host module times live only in the run registry's stage.* spans.
  double upload_seconds{0.0};
  double downlink_transfer_seconds{0.0};
  // Dissemination accounting.
  double delivered_relevance{0.0};
  int disseminations{0};
  // Fault injection / graceful degradation (all zero when
  // RunnerConfig::fault injects nothing and no track ever coasts).
  /// Fraction of offered upload frames lost to channel faults, in [0, 1].
  double uplink_loss_ratio{0.0};
  /// Fraction of selected disseminations lost on the wire or delivered past
  /// FaultConfig::downlink_deadline, in [0, 1].
  double downlink_deadline_miss_ratio{0.0};
  /// Total confirmed-track frames carried purely on Kalman prediction
  /// (summed over pipeline frames).
  int coasted_track_frames{0};
  /// Total accepted relevance candidates computed from stale tracks.
  int stale_relevance_frames{0};
  // Ingest hardening (DESIGN.md §12; all zero when the edge's admission
  // layer never engages).
  /// Objects whose on-the-wire payload failed CRC/header validation.
  int ingest_rejected_crc{0};
  /// Frames/objects rejected by semantic admission checks.
  int ingest_rejected_semantic{0};
  /// Quarantine events (a repeat offender re-entering counts again).
  int ingest_quarantined_vehicles{0};
  /// Objects shed by the per-frame ingest point budget under overload.
  int ingest_shed_uploads{0};
  // Redundancy-aware uplink (DESIGN.md §16; all zero with the knob off).
  // Byte fates are the per-frame means of UplinkTally's partition.
  /// Uplink bytes avoided per pipeline frame by coverage suppression and
  /// delta encoding (client-side savings; never part of `offered`).
  double uplink_suppressed_bytes_per_frame{0.0};
  /// Offered uplink bytes shed by the shared uplink cap, per pipeline frame.
  double uplink_capped_bytes_per_frame{0.0};
  /// Offered uplink bytes lost to channel faults, per pipeline frame.
  double uplink_lost_bytes_per_frame{0.0};
  /// Coverage-feedback messages the edge emitted / that the lossy downlink
  /// dropped before delivery.
  int coverage_feedback_msgs{0};
  int coverage_feedback_lost_msgs{0};
  // Service mode (DESIGN.md §17; all zero with the knob off).
  // Ingest-object fates obey Σarrived == Σadmitted + Σshed + parked
  // residual over a run (deferrals re-arrive as carried work).
  /// Offered uplink bytes dropped as drain-cap backpressure, per frame.
  double uplink_backpressure_bytes_per_frame{0.0};
  /// Upload frames dropped by the drain cap.
  int service_backpressure_uploads{0};
  /// Objects entering deadline admission over the run.
  int service_arrived_objects{0};
  /// Objects granted decode+merge budget over the run.
  int service_admitted_objects{0};
  /// Deferral events (an object parked for a later frame; one object can
  /// defer several times).
  int service_deferred_objects{0};
  /// Objects shed by deadline admission (budget denied, no parking room, or
  /// deferral expired).
  int service_shed_objects{0};
  /// Objects still parked when the run ended.
  int service_parked_residual{0};
};

class SystemRunner {
 public:
  explicit SystemRunner(RunnerConfig cfg = {});

  /// Run the scenario to completion and collect metrics. The scenario's
  /// world is advanced in place.
  MethodMetrics run(sim::Scenario& scenario);

 private:
  RunnerConfig cfg_;
};

/// Convenience: a RunnerConfig for `method` over `wireless`; Unlimited's
/// pipes are effectively uncapped.
RunnerConfig make_runner_config(Method method,
                                const net::WirelessConfig& wireless = {});

}  // namespace erpd::edge
