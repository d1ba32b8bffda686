#pragma once
// Edge admission: the service-mode settings and the one rank-and-grant
// shedder (DESIGN.md §12, §17).
//
// The paper's edge is an always-on service, not a lockstep callee: uploads
// arrive under a drain cap and the decode+merge stage runs under a
// per-frame deadline budget. This header holds the settings (ServiceConfig,
// default-off so the lockstep pipeline stays bit-identical), the fixed
// deadline cost model, and the admission controller: each upload object's
// cost is estimated from its point/object counts under an AdmissionPolicy,
// charged biggest cloud first against a net::FrameBudget, and work that does
// not fit is deferred to the next frame (bounded parking lot) or shed.
// EdgeServer runs two instances: the ingest point budget (cost = points, no
// deferral) and service-mode deadline admission (cost = estimated
// nanoseconds).
//
// Determinism: the controller runs single-threaded in upload order after the
// ingest guard; every decision is a pure function of the admitted upload
// sequence and the policy, so results are bit-identical across worker
// counts and hash seeds. Every object entering admission lands in exactly
// one fate per frame — admitted, deferred, or shed — and a
// ContractViolation fires if the partition ever leaks (ServiceStats
// identity, checked per frame).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "sim/types.hpp"

namespace erpd::edge {

struct ServiceConfig {
  /// Master switch for service mode (drain cap in the runner + deadline
  /// admission at the edge). Off by default: the lockstep pipeline is
  /// untouched and every committed fingerprint stays byte-identical.
  bool enabled{false};
  /// Surviving upload frames the edge takes per pipeline frame, in fan-out
  /// slot order; the overflow is dropped as backpressure. 0 = unbounded.
  std::size_t queue_drain_max{0};
  /// Per-frame decode+merge deadline budget in microseconds of estimated
  /// cost. 0 disables latency shedding (admission passes everything).
  std::uint64_t decode_merge_budget_us{0};
};

/// Deadline-admission cost model, read by deadline_policy(): estimated
/// decode+merge nanoseconds per uploaded point plus a fixed overhead per
/// object (detection, association, bookkeeping). Not all zero, or every
/// upload would be free and the deadline budget could never shed.
inline constexpr std::uint64_t kCostPerPointNs = 90;
inline constexpr std::uint64_t kCostPerObjectNs = 4000;
static_assert(kCostPerPointNs > 0 || kCostPerObjectNs > 0);
/// Objects the deferral parking lot holds across frames; beyond it a denied
/// object is shed instead of deferred.
inline constexpr std::size_t kDeferCapacity = 16;
/// Frames an object may be deferred before it is shed as expired (its
/// payload is stale by then; coasting tracks cover the gap).
inline constexpr int kMaxDeferFrames = 3;
static_assert(kMaxDeferFrames >= 0);

/// What one admission stage charges and what it does with denied work.
struct AdmissionPolicy {
  /// Per-frame capacity in cost units; 0 passes everything through.
  std::uint64_t capacity{0};
  /// Cost model: units per uploaded point plus a fixed cost per object.
  std::uint64_t cost_per_point{0};
  std::uint64_t cost_per_object{0};
  /// Parking lot for denied objects (0/0 = shed every denied object).
  std::size_t defer_capacity{0};
  int max_defer_frames{0};
};

/// Per-frame admission outcome: the controller's whole tally. The runner
/// books service-mode admission into the service.* counters.
/// Event-count identity, checked per frame:
///   arrived + carried == admitted + deferred + shed.
/// Summed over a run this collapses to the fresh-object fate partition
///   Σarrived == Σadmitted + Σshed + parked_residual
/// because every deferral is carried into a later frame unless it is still
/// parked when the run ends.
struct ServiceStats {
  /// Fresh objects entering admission this frame.
  std::size_t arrived_objects{0};
  /// Parked objects re-considered this frame.
  std::size_t carried_objects{0};
  /// Objects granted budget this frame (fresh or carried).
  std::size_t admitted_objects{0};
  /// Objects (newly) parked for a later frame.
  std::size_t deferred_objects{0};
  /// Objects dropped: budget denied with no parking room, or expired.
  std::size_t shed_objects{0};
  /// Budget granted this frame (policy units); 0 when the policy has no
  /// capacity and admission passes everything through.
  std::uint64_t admitted_cost{0};
  /// Budget requested by denied objects this frame (policy units).
  std::uint64_t denied_cost{0};
};

/// Rank-and-grant admission controller. Owned by EdgeServer; runs between
/// the ingest guard and the merge stage.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionPolicy policy = {})
      : policy_(policy) {}

  /// Estimated cost of one upload object under the policy's cost model.
  std::uint64_t cost(const net::ObjectUpload& o) const {
    return policy_.cost_per_object + policy_.cost_per_point * o.point_count;
  }

  /// Run admission over one frame's (guard-admitted) uploads plus the
  /// parking lot. Returns the admitted frames: re-admitted deferred objects
  /// first (grouped by their source frame), then the fresh frames — so
  /// fresh poses overwrite parked ones in the edge's fleet registry. Fresh
  /// frame skeletons (validated pose, no surviving objects) are kept.
  std::vector<net::UploadFrame> run(std::vector<net::UploadFrame> uploads,
                                    ServiceStats* stats);

  /// Objects currently parked for a later frame.
  std::size_t parked_count() const { return parked_.size(); }

 private:
  /// One admission candidate: a fresh object (age 0) or a parked one,
  /// carrying enough of its source frame to be re-emitted as an
  /// UploadFrame later.
  struct Candidate {
    net::ObjectUpload obj;
    sim::AgentId vehicle{sim::kInvalidAgent};
    geom::Pose pose{};
    double timestamp{0.0};
    std::uint64_t upload_seq{0};
    /// Completed deferrals (0 when fresh); the object ages by one each
    /// frame it is carried, and is shed at max_defer_frames.
    int age{0};
    /// Monotone arrival tick, the final deterministic tie-break.
    std::uint64_t order{0};
  };

  AdmissionPolicy policy_;
  std::vector<Candidate> parked_;
  std::uint64_t next_order_{0};
};

}  // namespace erpd::edge
