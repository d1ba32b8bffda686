#pragma once
// Bandwidth-constrained wireless channel model.
//
// The paper inherits EMP's [9] measured cellular bandwidth: a shared uplink
// cap and a downlink cap. We model each direction as a per-frame byte budget
// (capacity x frame interval) plus a latency model for end-to-end timing
// (Fig. 14): transfer delay = base latency + bytes / bandwidth.

#include <cstddef>
#include <cstdint>

#include "core/check.hpp"

namespace erpd::net {

struct WirelessConfig {
  /// Shared uplink capacity (all vehicles to the edge), Mbit/s.
  double uplink_mbps{40.0};
  /// Shared downlink capacity (edge to all vehicles), Mbit/s.
  double downlink_mbps{80.0};
  /// LiDAR frame interval (10 Hz sensors).
  double frame_interval{0.1};
  /// Propagation + protocol overhead per message, seconds.
  double base_latency{0.008};

  /// Contract-checks that every rate/interval a byte budget depends on is
  /// positive; a zero or negative rate silently truncates to a 0-byte budget
  /// and stalls the whole pipeline.
  void validate() const {
    ERPD_REQUIRE(uplink_mbps > 0.0,
                 "WirelessConfig: uplink_mbps must be > 0, got ", uplink_mbps);
    ERPD_REQUIRE(downlink_mbps > 0.0,
                 "WirelessConfig: downlink_mbps must be > 0, got ",
                 downlink_mbps);
    ERPD_REQUIRE(frame_interval > 0.0,
                 "WirelessConfig: frame_interval must be > 0, got ",
                 frame_interval);
    ERPD_REQUIRE(base_latency >= 0.0,
                 "WirelessConfig: base_latency must be >= 0, got ",
                 base_latency);
  }

  std::size_t uplink_budget_bytes() const {
    validate();
    return static_cast<std::size_t>(uplink_mbps * 1e6 / 8.0 * frame_interval);
  }
  std::size_t downlink_budget_bytes() const {
    validate();
    return static_cast<std::size_t>(downlink_mbps * 1e6 / 8.0 * frame_interval);
  }
};

/// Per-frame budget with first-come-first-served granting, in integer units:
/// bytes for the uplink cap, nanoseconds of estimated decode+merge cost for
/// service-mode admission (DESIGN.md §17). Integer units keep every grant
/// decision exact and platform-independent. A denied grant leaves the budget
/// untouched, so its headroom stays available to later (smaller) requests.
class FrameBudget {
 public:
  explicit FrameBudget(std::uint64_t capacity) : capacity_(capacity) {}

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }

  /// Units still grantable this frame. Guarded so a corrupted or
  /// over-granted state reports 0 instead of underflowing to a
  /// near-infinite budget; ERPD_DCHECK still flags the broken invariant in
  /// checked builds.
  std::uint64_t remaining() const {
    ERPD_DCHECK(used_ <= capacity_, "FrameBudget: used ", used_,
                " exceeds capacity ", capacity_);
    return used_ <= capacity_ ? capacity_ - used_ : 0;
  }

  /// True if the whole request fits; grants it atomically.
  bool try_grant(std::uint64_t units) {
    if (units > remaining()) return false;
    used_ += units;
    ERPD_ENSURE(used_ <= capacity_, "FrameBudget: grant of ", units,
                " overflowed capacity ", capacity_);
    return true;
  }

  /// Grant as much of the request as fits; returns the granted units.
  std::uint64_t grant_partial(std::uint64_t units) {
    const std::uint64_t g = units <= remaining() ? units : remaining();
    used_ += g;
    ERPD_ENSURE(used_ <= capacity_, "FrameBudget: partial grant of ", g,
                " overflowed capacity ", capacity_);
    return g;
  }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_{0};
};

/// Transfer completion delay for a message of `bytes` over a link of
/// `mbps`, including base latency. Contract-checks (ERPD_REQUIRE ->
/// ContractViolation) that the bandwidth is positive: a non-positive rate
/// has no physical delay and must never silently model a free link.
double transfer_delay(std::size_t bytes, double mbps, double base_latency);

}  // namespace erpd::net
