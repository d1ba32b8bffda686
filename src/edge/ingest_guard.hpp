#pragma once
// Edge ingest admission control (DESIGN.md §12).
//
// Everything reaching EdgeServer::process_frame crossed a radio link from a
// vehicle the edge does not control, so the edge treats it as untrusted
// input: wire payloads must validate (pc::try_decode — CRC32 + header
// sanity), and frames must pass per-vehicle semantic checks (finite pose,
// bounded pose jump, objects inside map bounds, per-frame object/point
// caps). Offending vehicles accumulate strikes into a quarantine with
// exponential-backoff readmission. The guard does validation and reputation
// only; the optional per-frame point budget that sheds the lowest-value
// uploads under overload is an AdmissionController stage EdgeServer runs
// right after it (edge/service.hpp).
//
// Determinism: the guard runs single-threaded in upload order and all state
// transitions are pure functions of the admitted sequence and simulated
// time, so results are bit-identical across thread counts. With the guard
// disabled and no wire payloads present it is never invoked at all — the
// lossless pipeline is untouched.

#include <cstdint>
#include <map>
#include <vector>

#include "net/message.hpp"
#include "pointcloud/encoding.hpp"
#include "sim/types.hpp"

namespace erpd::edge {

struct IngestConfig {
  /// Master switch for semantic validation + quarantine + the point budget.
  /// Wire
  /// payload validation (try_decode of ObjectUpload::wire) always runs when
  /// a payload is present, independent of this flag: a corrupted buffer must
  /// never be trusted just because admission control is off.
  bool enabled{false};
  /// Upper bound on plausible vehicle speed implied by the pose displacement
  /// between consecutive accepted frames (m/s). ~250 km/h.
  double max_pose_speed{70.0};
  /// Map bounds: poses and object centroids with |x| or |y| beyond this are
  /// rejected (meters; the intersection scenarios live within a few hundred).
  double max_abs_coord{2000.0};
  /// Per-frame structural caps.
  std::size_t max_objects_per_frame{64};
  std::size_t max_points_per_frame{200000};
  /// Uploads stamped further than this into the future are rejected (s).
  double max_timestamp_ahead{0.25};
  /// Strikes (one per offending frame) that trigger a quarantine.
  int strike_threshold{3};
  /// Strikes forgiven per clean frame (slow decay: a vehicle must behave for
  /// a while to erase a reputation).
  double strike_decay{0.25};
  /// First quarantine lasts quarantine_base seconds; each repeat doubles the
  /// window exactly quarantine_base -> quarantine_max and then saturates (a
  /// perpetual offender sits at quarantine_max, never beyond). A clean frame
  /// admitted after the window expires resets the ladder: the next
  /// quarantine starts at quarantine_base again.
  double quarantine_base{1.0};
  double quarantine_max{16.0};
  /// Total points admitted per frame across the fleet; 0 disables shedding.
  /// Under overload the largest uploads are kept (they carry the most
  /// perception value per header) and the rest shed deterministically, by
  /// EdgeServer's point-budget admission stage.
  std::size_t point_budget_per_frame{0};

  void validate() const;
};

/// Per-process_frame admission outcome: the guard's whole tally. The runner
/// books it into the ingest.* counters.
struct IngestStats {
  /// Objects whose wire payload failed validation (CRC / header sanity).
  std::size_t rejected_crc{0};
  /// Frames rejected (or objects dropped) by semantic admission checks.
  std::size_t rejected_semantic{0};
  /// Quarantines that started this frame.
  std::size_t quarantine_events{0};
  /// Frames dropped because their sender was quarantined.
  std::size_t quarantine_dropped{0};
  /// Objects shed by the per-frame point budget.
  std::size_t shed_uploads{0};
};

class IngestGuard {
 public:
  explicit IngestGuard(IngestConfig cfg = {});

  const IngestConfig& config() const { return cfg_; }

  /// True when admit() could change this batch: admission control is on, or
  /// some upload carries an on-the-wire payload that must be validated.
  bool should_run(const std::vector<net::UploadFrame>& uploads) const;

  /// Run the admission pipeline over one frame's uploads (in order):
  /// quarantine gate -> semantic frame checks -> per-object wire validation
  /// and bounds checks -> reputation update. Returns the admitted frames;
  /// `t` is the edge's simulated clock.
  std::vector<net::UploadFrame> admit(
      const std::vector<net::UploadFrame>& uploads, double t,
      IngestStats* stats);

  /// True while `vehicle` is serving a quarantine at time `t`.
  bool quarantined(sim::AgentId vehicle, double t) const;

 private:
  struct VehicleState {
    double strikes{0.0};
    int quarantines{0};
    double quarantine_until{-1.0};
    double last_timestamp{0.0};
    geom::Vec2 last_position{};
    bool has_last{false};
  };

  /// One offending frame: bump strikes, maybe start a quarantine.
  void note_offense(VehicleState& vs, double t, IngestStats* stats);

  IngestConfig cfg_;
  /// Ordered by AgentId (detlint D1): today only keyed lookups, but the
  /// multi-edge sharding arc will migrate and enumerate this state, and an
  /// ordered container makes any future iteration deterministic by
  /// construction instead of hash-layout dependent.
  std::map<sim::AgentId, VehicleState> vehicles_;
  /// Delta-decoding bases: the last admitted keyframe wire buffer per
  /// (vehicle, object_seq). Capped per vehicle (lowest seq evicted) so a
  /// misbehaving sender cannot grow edge memory without bound. Ordered maps
  /// for deterministic eviction.
  std::map<sim::AgentId, std::map<std::uint64_t, pc::EncodedCloud>> bases_;
  static constexpr std::size_t kMaxBasesPerVehicle = 64;
};

}  // namespace erpd::edge
