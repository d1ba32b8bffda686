#pragma once
// Deterministic fault injection for the vehicle <-> edge wireless links.
//
// The paper evaluates over EMP-style measured cellular bandwidth, which in
// this repo is an ideal lossless pipe (channel.hpp). Real vehicular uplinks
// are intermittent: messages drop, latency jitters, radios black out. This
// layer models those faults *deterministically*: every decision (drop a
// message? how much jitter? is this vehicle offline?) is a pure function of
// (FaultConfig::seed, stream tag, entity id, frame/epoch index) hashed
// through the counter-based splitmix64 streams in core/rng.hpp. Runs are
// therefore bit-identical for a given seed and independent of ERPD_THREADS
// or evaluation order — the property the determinism suite locks in.
//
// A default-constructed FaultConfig answers "no fault" to every query, so the
// closed loop, which always asks, behaves exactly as the lossless pre-fault
// pipeline.

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/check.hpp"
#include "core/rng.hpp"
#include "sim/types.hpp"

namespace erpd::net {

/// A channel-wide burst outage: every message (both directions) offered in
/// [start, start + duration) seconds of simulated time is lost.
struct Outage {
  double start{0.0};
  double duration{0.0};
};

/// A scheduled per-vehicle radio blackout: the vehicle neither uploads nor
/// receives in [start, start + duration). On reconnect the harness resets the
/// vehicle's local pipeline (its frame-differencing baseline is stale).
struct Disconnect {
  sim::AgentId vehicle{sim::kInvalidAgent};
  double start{0.0};
  double duration{0.0};
};

/// A Byzantine (faulty, not merely lossy) sender: from `start` on, every
/// upload frame this vehicle offers carries garbage — teleported poses and
/// out-of-bounds object positions — that is structurally valid but
/// semantically wrong. Exercises the edge admission layer (DESIGN.md §12):
/// without quarantine, one such vehicle poisons tracking for everyone.
struct Byzantine {
  sim::AgentId vehicle{sim::kInvalidAgent};
  double start{0.0};
};

/// How an upload payload was mangled on the wire. Drawn per (vehicle, frame)
/// from a dedicated hash stream; kNone means this message was clean.
enum class CorruptionKind : std::uint8_t {
  kNone,
  kBitFlip,      ///< random bits flipped inside the encoded payload
  kTruncate,     ///< payload cut short mid-buffer
  kDuplicate,    ///< the frame arrives twice
  kStaleReplay,  ///< a previously sent frame arrives instead of this one
};

const char* to_string(CorruptionKind k);

struct FaultConfig {
  /// Base seed for every fault stream. Two runs with the same seed and the
  /// same config draw identical schedules.
  std::uint64_t seed{0};
  /// Per-message Bernoulli loss probability for upload frames, in [0, 1].
  double uplink_loss{0.0};
  /// Per-message Bernoulli loss probability for disseminations, in [0, 1].
  double downlink_loss{0.0};
  /// Mean of the exponential latency jitter added to each direction's
  /// transfer delay (seconds). 0 disables jitter.
  double jitter_mean{0.0};
  /// Disseminations whose simulated delivery delay (transfer + jitter)
  /// exceeds this deadline arrive too late to act on and count as misses.
  /// 0 disables deadline accounting.
  double downlink_deadline{0.0};
  /// Channel-wide burst outages.
  std::vector<Outage> outages;
  /// Scheduled per-vehicle blackouts.
  std::vector<Disconnect> disconnects;
  /// Random disconnects: each (vehicle, epoch) pair is independently offline
  /// with this probability, where epochs tile time in `disconnect_epoch`
  /// second slots. Deterministic: the decision is a hash of the pair.
  double random_disconnect_rate{0.0};
  double disconnect_epoch{2.0};
  /// Per-message Bernoulli probability that a *delivered* upload frame is
  /// corrupted in transit (bit flips / truncation / duplication / stale
  /// replay, kind drawn per message), in [0, 1]. Lost messages are never
  /// also corrupted: each message has exactly one fate.
  double uplink_corruption{0.0};
  /// Same, for dissemination messages. A corrupted dissemination fails its
  /// integrity check at the receiver and is discarded (counted once, as
  /// corrupted — never additionally as a deadline miss).
  double downlink_corruption{0.0};
  /// Byzantine senders (see Byzantine above).
  std::vector<Byzantine> byzantine;

  void validate() const {
    ERPD_REQUIRE(uplink_loss >= 0.0 && uplink_loss <= 1.0,
                 "FaultConfig: uplink_loss must be in [0,1], got ",
                 uplink_loss);
    ERPD_REQUIRE(downlink_loss >= 0.0 && downlink_loss <= 1.0,
                 "FaultConfig: downlink_loss must be in [0,1], got ",
                 downlink_loss);
    ERPD_REQUIRE(jitter_mean >= 0.0,
                 "FaultConfig: jitter_mean must be >= 0, got ", jitter_mean);
    ERPD_REQUIRE(downlink_deadline >= 0.0,
                 "FaultConfig: downlink_deadline must be >= 0, got ",
                 downlink_deadline);
    ERPD_REQUIRE(
        random_disconnect_rate >= 0.0 && random_disconnect_rate <= 1.0,
        "FaultConfig: random_disconnect_rate must be in [0,1], got ",
        random_disconnect_rate);
    ERPD_REQUIRE(disconnect_epoch > 0.0,
                 "FaultConfig: disconnect_epoch must be > 0, got ",
                 disconnect_epoch);
    for (const Outage& o : outages) {
      ERPD_REQUIRE(o.start >= 0.0,
                   "FaultConfig: outage start must be >= 0, got ", o.start);
      ERPD_REQUIRE(o.duration >= 0.0,
                   "FaultConfig: outage duration must be >= 0, got ",
                   o.duration);
    }
    for (const Disconnect& d : disconnects) {
      ERPD_REQUIRE(d.vehicle != sim::kInvalidAgent,
                   "FaultConfig: disconnect window needs a valid vehicle id");
      ERPD_REQUIRE(d.start >= 0.0,
                   "FaultConfig: disconnect start must be >= 0, got ",
                   d.start);
      ERPD_REQUIRE(d.duration >= 0.0,
                   "FaultConfig: disconnect duration must be >= 0, got ",
                   d.duration);
    }
    ERPD_REQUIRE(uplink_corruption >= 0.0 && uplink_corruption <= 1.0,
                 "FaultConfig: uplink_corruption must be in [0,1], got ",
                 uplink_corruption);
    ERPD_REQUIRE(downlink_corruption >= 0.0 && downlink_corruption <= 1.0,
                 "FaultConfig: downlink_corruption must be in [0,1], got ",
                 downlink_corruption);
    for (const Byzantine& b : byzantine) {
      ERPD_REQUIRE(b.vehicle != sim::kInvalidAgent,
                   "FaultConfig: byzantine entry needs a valid vehicle id");
      ERPD_REQUIRE(b.start >= 0.0,
                   "FaultConfig: byzantine start must be >= 0, got ", b.start);
    }
  }
};

/// Stateless view over a FaultConfig that answers per-message fault queries.
/// Every method is const and a pure function of its arguments, so callers may
/// query in any order, from any thread, and replay decisions exactly. The
/// channel books nothing: the caller tallies the fates it is told.
class LossyChannel {
 public:
  explicit LossyChannel(const FaultConfig& cfg) : cfg_(cfg) {
    cfg_.validate();
  }

  /// True while a channel-wide burst outage covers simulated time `t`.
  bool in_outage(double t) const {
    for (const Outage& o : cfg_.outages) {
      if (t >= o.start && t < o.start + o.duration) return true;
    }
    return false;
  }

  /// True while `vehicle`'s radio is down at time `t` (scheduled window or
  /// counter-hashed random epoch).
  bool vehicle_offline(sim::AgentId vehicle, double t) const;

  /// Should this vehicle's upload frame be lost on the wire?
  bool uplink_lost(sim::AgentId vehicle, int frame, double t) const;

  /// Should this dissemination message be lost on the wire? Includes burst
  /// outages and the recipient being offline.
  bool downlink_lost(sim::AgentId to, int track_id, int frame,
                     double t) const;

  /// Should this coverage-feedback message be lost on the wire? Feedback
  /// rides the downlink, so it shares the downlink fate model (burst
  /// outages, recipient offline, Bernoulli downlink_loss) but draws from its
  /// own hash stream: feedback fates never perturb dissemination fates.
  bool feedback_lost(sim::AgentId to, int frame, double t) const;

  /// Exponential latency jitter added to the shared uplink transfer this
  /// frame (one draw per frame: the uplink is one shared pipe).
  double uplink_jitter(int frame) const;

  /// Exponential latency jitter for one dissemination message.
  double downlink_jitter(sim::AgentId to, int track_id, int frame) const;

  /// How this vehicle's (delivered, non-Byzantine) upload frame is mangled
  /// this frame; kNone means it arrives clean. The caller must only query
  /// messages that survived uplink_lost so each message is billed exactly
  /// one fate.
  CorruptionKind uplink_corruption(sim::AgentId vehicle, int frame) const;

  /// Should this (delivered) dissemination message arrive corrupted and be
  /// discarded by the receiver's integrity check? The caller must only query
  /// messages that survived downlink_lost.
  bool downlink_corrupted(sim::AgentId to, int track_id, int frame) const;

  /// True when `vehicle` is configured Byzantine at time `t`.
  bool is_byzantine(sim::AgentId vehicle, double t) const;
  bool corruption_active() const { return cfg_.uplink_corruption > 0.0; }

  /// Raw 64-bit word from the corruption-payload stream, for callers that
  /// need deterministic mangle parameters (which bits to flip, where to cut)
  /// beyond the Bernoulli decision. Pure function of (seed, vehicle, frame,
  /// salt).
  std::uint64_t corruption_word(sim::AgentId vehicle, int frame,
                                std::uint64_t salt) const;

 private:
  // Stream tags keep the per-purpose hash streams disjoint.
  enum Stream : std::uint64_t {
    kUplinkDrop = 0x1157,
    kDownlinkDrop = 0x2d0c,
    kUplinkJitter = 0x3a17,
    kDownlinkJitter = 0x4b28,
    kRandomDisconnect = 0x5e39,
    kUplinkCorrupt = 0x6f4a,
    kDownlinkCorrupt = 0x7c5b,
    kCorruptPayload = 0x8d6c,
    kFeedbackDrop = 0x9e7d,
  };

  /// Uniform [0, 1) draw, a pure function of (seed, stream, a, b).
  double uniform(std::uint64_t stream, std::uint64_t a, std::uint64_t b) const;

  FaultConfig cfg_;
};

}  // namespace erpd::net
