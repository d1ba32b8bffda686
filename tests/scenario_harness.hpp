#pragma once
// Table-driven golden-scenario harness.
//
// Runs the closed-loop simulation (sensing -> uplink -> edge -> dissemination
// -> driver reaction) across a matrix of network-fault cases and checks the
// recorded safety metrics against committed tolerance bands, so future PRs
// cannot silently regress behavior under degraded networks. Also provides the
// order-stable decision-stream fold the golden-scenario test locks behavior
// in with (the metrics fingerprint is edge::behavior_fingerprint).
//
// Used by tests/test_fault_matrix.cpp, tests/test_golden_scenario.cpp and
// tests/test_determinism.cpp; the fault lane in CI (`ctest -L fault`) runs
// the matrix under ASan+UBSan and uploads the metric JSON as an artifact.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "edge/system_runner.hpp"
#include "sim/scenario.hpp"

namespace erpd::harness {

/// Safety tolerances a fault case must stay within. Values are committed
/// alongside the matrix; loosen only with a PR that explains why degradation
/// got worse.
struct ToleranceBand {
  /// Lower bound on the scripted conflict pair surviving (Fig. 10 metric).
  double min_conflict_safe_rate{1.0};
  /// Lower bound on the fleet-wide safe-passage rate.
  double min_safe_passage_rate{0.9};
  /// Lower bound on the ego-threat minimum distance (meters).
  double min_key_distance{1.0};
};

/// One row of the fault matrix: a named FaultConfig plus the degradation
/// policy the edge runs with and the tolerance band the outcome must meet.
struct FaultCase {
  std::string name;
  net::FaultConfig fault{};
  /// Edge degradation policy for this case (EdgeConfig::staleness_decay and
  /// TrackerConfig::max_coast_frames).
  double staleness_decay{0.0};
  int max_coast_frames{0};
  /// When true, the harness blacks out the scenario's ego vehicle for
  /// [blackout_start, blackout_start + blackout_duration) — the concrete
  /// vehicle id only exists once the scenario is built.
  bool blackout_ego{false};
  double blackout_start{0.0};
  double blackout_duration{0.0};
  /// Enable the edge ingest-hardening layer (semantic admission, quarantine,
  /// shedding) for this case, with `ingest_point_budget` as the per-frame
  /// point budget (0 = no shedding).
  bool harden_ingest{false};
  std::size_t ingest_point_budget{0};
  /// When true, run_case marks one connected background vehicle (never the
  /// scripted ego/threat/observer/follower) Byzantine from byzantine_start
  /// on — again the concrete id only exists once the scenario is built.
  bool byzantine_vehicle{false};
  double byzantine_start{0.0};
  /// Enable the redundancy-aware uplink (coverage feedback + delta encoding,
  /// DESIGN.md §16) for this case.
  bool redundancy{false};
  /// Enable the service-mode edge pipeline (MPSC ingest queue + deadline
  /// admission, DESIGN.md §17) with `service_budget_us` as the per-frame
  /// decode+merge budget (0 = no latency shedding).
  bool service{false};
  std::uint64_t service_budget_us{0};
  ToleranceBand band{};
};

struct CaseResult {
  FaultCase fcase;
  edge::MethodMetrics metrics;
};

/// The default intersection workload every harness case runs: unprotected
/// left turn, 12 vehicles / 3 pedestrians at 50% connectivity, coarse
/// 16-channel LiDAR (geometry unchanged, fast enough for CI).
sim::ScenarioConfig default_intersection(std::uint64_t seed);

/// Runner configuration for one fault case (16/32 Mbit/s caps, the case's
/// fault config and degradation policy threaded through).
edge::RunnerConfig make_fault_runner(edge::Method method, const FaultCase& fc);

/// Build the scenario, resolve ego-blackout windows, run the closed loop.
/// `configure`, when set, edits the runner config last (to attach an
/// on_frame observer or a caller registry).
CaseResult run_case(
    edge::Method method, const FaultCase& fc, double duration = 14.0,
    std::uint64_t seed = 42,
    const std::function<void(edge::RunnerConfig&)>& configure = {});

/// The committed fault matrix: no faults / 10% loss / 30% loss /
/// single-vehicle (ego) blackout / burst outage / latency jitter /
/// corruption + Byzantine sender / ingest overload shedding.
std::vector<FaultCase> default_fault_matrix();

/// JSON document for the CI artifact, built on the obs exporter: a
/// document-level RunManifest plus one object per case carrying that case's
/// manifest (with the case-specific config fingerprint) and the full
/// MethodMetrics field set. `method`/`seed` must match what run_case ran.
std::string metrics_json(const std::vector<CaseResult>& results,
                         edge::Method method, std::uint64_t seed);

/// Fold one dissemination decision into a running fingerprint.
std::uint64_t fold_decision(std::uint64_t h, int frame,
                            const net::Dissemination& d);

}  // namespace erpd::harness
