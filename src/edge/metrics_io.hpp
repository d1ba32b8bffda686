#pragma once
// JSON serialization of the runner's result structs (DESIGN.md §11).
//
// The X-macro table is the single source of truth for both the JSON writer
// and the exported key list, so the golden-schema test can prove the wire
// format tracks the struct: adding a MethodMetrics field without touching
// the exporter is impossible, and renaming a key silently is caught.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "edge/system_runner.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"

// Every exported MethodMetrics field, in struct declaration order.
#define ERPD_METHOD_METRICS_FIELDS(X) \
  X(vehicles_entered)                 \
  X(vehicles_safe)                    \
  X(safe_passage_rate)                \
  X(conflict_safe_rate)               \
  X(ego_safe)                         \
  X(follower_safe)                    \
  X(follower_min_gap)                 \
  X(collisions)                       \
  X(min_key_distance)                 \
  X(uplink_mbps)                      \
  X(downlink_mbps)                    \
  X(uplink_bytes_per_frame)           \
  X(downlink_bytes_per_frame)         \
  X(uplink_offered_bytes_per_frame)   \
  X(uplink_drop_ratio)                \
  X(avg_objects_detected)             \
  X(upload_seconds)                   \
  X(downlink_transfer_seconds)        \
  X(delivered_relevance)              \
  X(disseminations)                   \
  X(uplink_loss_ratio)                \
  X(downlink_deadline_miss_ratio)     \
  X(coasted_track_frames)             \
  X(stale_relevance_frames)           \
  X(ingest_rejected_crc)              \
  X(ingest_rejected_semantic)         \
  X(ingest_quarantined_vehicles)      \
  X(ingest_shed_uploads)              \
  X(uplink_suppressed_bytes_per_frame) \
  X(uplink_capped_bytes_per_frame)    \
  X(uplink_lost_bytes_per_frame)      \
  X(coverage_feedback_msgs)           \
  X(coverage_feedback_lost_msgs)      \
  X(uplink_backpressure_bytes_per_frame) \
  X(service_backpressure_uploads)     \
  X(service_arrived_objects)          \
  X(service_admitted_objects)         \
  X(service_deferred_objects)         \
  X(service_shed_objects)             \
  X(service_parked_residual)

namespace erpd::edge {

/// Write every MethodMetrics field as "name": value pairs. Call with the
/// writer positioned inside an object.
void append_method_metrics(obs::JsonWriter& w, const MethodMetrics& m);

/// The JSON key set append_method_metrics emits, in emission order.
std::vector<std::string_view> method_metrics_keys();

/// The behaviour fingerprint: a hash of every MethodMetrics field (all of
/// them simulated), folded in table order with core::seed_mix from
/// 0x9e3779b97f4a7c15. Doubles fold by bit pattern, ints by
/// static_cast<uint64_t>, bools as 0/1. Bit-equal at any worker count by the
/// determinism contract.
std::uint64_t behavior_fingerprint(const MethodMetrics& m);

/// Build the provenance manifest for a run of `cfg`, stamped with the thread
/// count and configure-time git revision. The config fingerprint folds the
/// method, link, the edge's relevance/follower/staleness knobs, the track
/// coasting limit, duration, fault schedule, ingest switch and point budget,
/// redundancy and service settings; not the predictor, extractor or encoding
/// configs. Tuning fixed as named constants is not folded.
obs::RunManifest make_manifest(const RunnerConfig& cfg,
                               std::string_view scenario, std::uint64_t seed);

}  // namespace erpd::edge
