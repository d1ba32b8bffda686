#include "net/fault.hpp"

namespace erpd::net {

namespace {

/// One hash counter per (recipient, track) dissemination, so two messages in
/// the same frame draw independent fates.
std::uint64_t message_id(sim::AgentId to, int track_id) {
  return core::seed_mix(static_cast<std::uint64_t>(to),
                        static_cast<std::uint64_t>(track_id));
}

}  // namespace

const char* to_string(CorruptionKind k) {
  switch (k) {
    case CorruptionKind::kNone: return "none";
    case CorruptionKind::kBitFlip: return "bit-flip";
    case CorruptionKind::kTruncate: return "truncate";
    case CorruptionKind::kDuplicate: return "duplicate";
    case CorruptionKind::kStaleReplay: return "stale-replay";
  }
  return "?";
}

double LossyChannel::uniform(std::uint64_t stream, std::uint64_t a,
                             std::uint64_t b) const {
  core::SplitMix64 gen(core::seed_mix(cfg_.seed, stream, a, b));
  // 53 uniform mantissa bits -> [0, 1).
  return std::ldexp(static_cast<double>(gen() >> 11), -53);
}

bool LossyChannel::vehicle_offline(sim::AgentId vehicle, double t) const {
  for (const Disconnect& d : cfg_.disconnects) {
    if (d.vehicle == vehicle && t >= d.start && t < d.start + d.duration) {
      return true;
    }
  }
  if (cfg_.random_disconnect_rate > 0.0) {
    const auto epoch =
        static_cast<std::uint64_t>(std::floor(t / cfg_.disconnect_epoch));
    return uniform(kRandomDisconnect, static_cast<std::uint64_t>(vehicle),
                   epoch) < cfg_.random_disconnect_rate;
  }
  return false;
}

bool LossyChannel::uplink_lost(sim::AgentId vehicle, int frame,
                               double t) const {
  return in_outage(t) ||
         (cfg_.uplink_loss > 0.0 &&
          uniform(kUplinkDrop, static_cast<std::uint64_t>(vehicle),
                  static_cast<std::uint64_t>(frame)) < cfg_.uplink_loss);
}

bool LossyChannel::downlink_lost(sim::AgentId to, int track_id, int frame,
                                 double t) const {
  return in_outage(t) || vehicle_offline(to, t) ||
         (cfg_.downlink_loss > 0.0 &&
          uniform(kDownlinkDrop, message_id(to, track_id),
                  static_cast<std::uint64_t>(frame)) < cfg_.downlink_loss);
}

bool LossyChannel::feedback_lost(sim::AgentId to, int frame, double t) const {
  return in_outage(t) || vehicle_offline(to, t) ||
         (cfg_.downlink_loss > 0.0 &&
          uniform(kFeedbackDrop, static_cast<std::uint64_t>(to),
                  static_cast<std::uint64_t>(frame)) < cfg_.downlink_loss);
}

double LossyChannel::uplink_jitter(int frame) const {
  if (cfg_.jitter_mean <= 0.0) return 0.0;
  const double u = uniform(kUplinkJitter, static_cast<std::uint64_t>(frame), 0);
  // Inverse-CDF exponential; u < 1 so log1p(-u) is finite.
  return -cfg_.jitter_mean * std::log1p(-u);
}

double LossyChannel::downlink_jitter(sim::AgentId to, int track_id,
                                     int frame) const {
  if (cfg_.jitter_mean <= 0.0) return 0.0;
  const double u = uniform(kDownlinkJitter, message_id(to, track_id),
                           static_cast<std::uint64_t>(frame));
  return -cfg_.jitter_mean * std::log1p(-u);
}

CorruptionKind LossyChannel::uplink_corruption(sim::AgentId vehicle,
                                               int frame) const {
  if (cfg_.uplink_corruption <= 0.0) return CorruptionKind::kNone;
  const std::uint64_t v = static_cast<std::uint64_t>(vehicle);
  const std::uint64_t f = static_cast<std::uint64_t>(frame);
  if (uniform(kUplinkCorrupt, v, f) >= cfg_.uplink_corruption) {
    return CorruptionKind::kNone;
  }
  // The kind comes from an independent word of the same stream so the
  // Bernoulli decision and the mangle shape do not correlate.
  return static_cast<CorruptionKind>(
      1 + corruption_word(vehicle, frame, /*salt=*/0) % 4);
}

bool LossyChannel::downlink_corrupted(sim::AgentId to, int track_id,
                                      int frame) const {
  if (cfg_.downlink_corruption <= 0.0) return false;
  return uniform(kDownlinkCorrupt, message_id(to, track_id),
                 static_cast<std::uint64_t>(frame)) < cfg_.downlink_corruption;
}

bool LossyChannel::is_byzantine(sim::AgentId vehicle, double t) const {
  for (const Byzantine& b : cfg_.byzantine) {
    if (b.vehicle == vehicle && t >= b.start) return true;
  }
  return false;
}

std::uint64_t LossyChannel::corruption_word(sim::AgentId vehicle, int frame,
                                            std::uint64_t salt) const {
  core::SplitMix64 gen(core::seed_mix(
      cfg_.seed, kCorruptPayload,
      core::seed_mix(static_cast<std::uint64_t>(vehicle),
                     static_cast<std::uint64_t>(frame)),
      salt));
  return gen();
}

}  // namespace erpd::net
