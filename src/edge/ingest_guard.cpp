#include "edge/ingest_guard.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "pointcloud/encoding.hpp"

namespace erpd::edge {

namespace {

bool finite_pose(const geom::Pose& pose) {
  return std::isfinite(pose.position.x) && std::isfinite(pose.position.y) &&
         std::isfinite(pose.position.z) && std::isfinite(pose.yaw) &&
         std::isfinite(pose.pitch) && std::isfinite(pose.roll);
}

}  // namespace

void IngestConfig::validate() const {
  ERPD_REQUIRE(max_pose_speed > 0.0,
               "IngestConfig: max_pose_speed must be > 0, got ",
               max_pose_speed);
  ERPD_REQUIRE(max_abs_coord > 0.0,
               "IngestConfig: max_abs_coord must be > 0, got ", max_abs_coord);
  ERPD_REQUIRE(max_timestamp_ahead >= 0.0,
               "IngestConfig: max_timestamp_ahead must be >= 0, got ",
               max_timestamp_ahead);
  ERPD_REQUIRE(strike_threshold >= 1,
               "IngestConfig: strike_threshold must be >= 1, got ",
               strike_threshold);
  ERPD_REQUIRE(strike_decay >= 0.0,
               "IngestConfig: strike_decay must be >= 0, got ", strike_decay);
  ERPD_REQUIRE(quarantine_base > 0.0 && quarantine_max >= quarantine_base,
               "IngestConfig: need 0 < quarantine_base <= quarantine_max");
}

IngestGuard::IngestGuard(IngestConfig cfg) : cfg_(cfg) { cfg_.validate(); }

bool IngestGuard::should_run(
    const std::vector<net::UploadFrame>& uploads) const {
  if (cfg_.enabled) return true;
  for (const net::UploadFrame& f : uploads) {
    for (const net::ObjectUpload& o : f.objects) {
      if (o.wire_present) return true;
    }
  }
  return false;
}

bool IngestGuard::quarantined(sim::AgentId vehicle, double t) const {
  const auto it = vehicles_.find(vehicle);
  return it != vehicles_.end() && t < it->second.quarantine_until;
}

void IngestGuard::note_offense(VehicleState& vs, double t,
                               IngestStats* stats) {
  vs.strikes += 1.0;
  if (vs.strikes < static_cast<double>(cfg_.strike_threshold)) return;
  vs.strikes = 0.0;
  // Saturating exponential backoff: the window doubles per repeat offense
  // exactly quarantine_base -> quarantine_max and then holds. The exponent
  // stops advancing once the window is clamped, so a vehicle that misbehaves
  // for hours can never overflow exp2 past the max.
  const double backoff =
      std::min(cfg_.quarantine_base * std::exp2(static_cast<double>(
                                          vs.quarantines)),
               cfg_.quarantine_max);
  vs.quarantine_until = t + backoff;
  if (backoff < cfg_.quarantine_max) ++vs.quarantines;
  ++stats->quarantine_events;
}

std::vector<net::UploadFrame> IngestGuard::admit(
    const std::vector<net::UploadFrame>& uploads, double t,
    IngestStats* stats) {
  std::vector<net::UploadFrame> admitted;
  admitted.reserve(uploads.size());

  // Vehicles already seen in this batch: a second frame from the same sender
  // within one pipeline frame is a replay/duplication artifact.
  std::vector<sim::AgentId> seen;

  for (const net::UploadFrame& f : uploads) {
    if (cfg_.enabled && quarantined(f.vehicle, t)) {
      ++stats->quarantine_dropped;
      continue;
    }

    VehicleState& vs = vehicles_[f.vehicle];
    bool reject = false;
    if (cfg_.enabled) {
      std::size_t frame_points = 0;
      for (const net::ObjectUpload& o : f.objects) {
        frame_points += o.point_count;
      }
      const bool duplicate =
          std::find(seen.begin(), seen.end(), f.vehicle) != seen.end();
      seen.push_back(f.vehicle);
      reject =
          duplicate || !finite_pose(f.pose) ||
          std::abs(f.pose.position.x) > cfg_.max_abs_coord ||
          std::abs(f.pose.position.y) > cfg_.max_abs_coord ||
          !std::isfinite(f.timestamp) ||
          f.timestamp > t + cfg_.max_timestamp_ahead ||
          (vs.has_last && f.timestamp <= vs.last_timestamp) ||
          f.objects.size() > cfg_.max_objects_per_frame ||
          frame_points > cfg_.max_points_per_frame;
      if (!reject && vs.has_last) {
        // Pose jump: the implied speed since the last accepted frame must be
        // physically plausible (timestamp monotonicity above guarantees
        // dt > 0).
        const double dt = f.timestamp - vs.last_timestamp;
        const double dist = distance(f.pose.position.xy(), vs.last_position);
        reject = dist > cfg_.max_pose_speed * dt;
      }
    }
    if (reject) {
      ++stats->rejected_semantic;
      note_offense(vs, t, stats);
      continue;
    }

    // Per-object validation. Wire payloads (present only when the fault
    // layer mangles buffers) must pass try_decode regardless of `enabled`;
    // semantic bounds checks on object positions need admission control on.
    net::UploadFrame kept;
    kept.vehicle = f.vehicle;
    kept.pose = f.pose;
    kept.timestamp = f.timestamp;
    kept.upload_seq = f.upload_seq;
    kept.objects.reserve(f.objects.size());
    std::size_t dropped_objects = 0;
    for (const net::ObjectUpload& o : f.objects) {
      if (o.wire_present) {
        // Delta chunks decode against the last admitted keyframe for this
        // (vehicle, object). A chunk that *claims* to be a delta (is_delta)
        // or *looks* like one (magic) takes the delta path — either way the
        // strict header checks decide, never the sender's flag alone.
        if (o.is_delta || pc::is_delta(o.wire)) {
          const pc::EncodedCloud* base = nullptr;
          const auto vit = bases_.find(f.vehicle);
          if (vit != bases_.end()) {
            const auto bit = vit->second.find(o.object_seq);
            if (bit != vit->second.end()) base = &bit->second;
          }
          pc::DecodeResult r = pc::try_decode_delta(o.wire, base);
          if (r.status != pc::DecodeStatus::kOk) {
            ++dropped_objects;
            // Transport-shaped damage (truncation, size, CRC) counts as
            // corruption; protocol-shaped damage (wrong magic, missing or
            // mismatched base, bad indices/motion) as a semantic reject.
            const bool transport =
                r.status == pc::DecodeStatus::kTruncatedHeader ||
                r.status == pc::DecodeStatus::kSizeMismatch ||
                r.status == pc::DecodeStatus::kBadChecksum;
            ++(transport ? stats->rejected_crc : stats->rejected_semantic);
            continue;
          }
          net::ObjectUpload checked = o;
          checked.cloud_world = std::move(r.cloud);
          checked.wire = pc::EncodedCloud{};
          checked.wire_present = false;
          kept.objects.push_back(std::move(checked));
          continue;
        }
        pc::DecodeResult r = pc::try_decode(o.wire);
        if (!r.ok()) {
          ++dropped_objects;
          ++stats->rejected_crc;
          continue;
        }
        // A validated keyframe with an object identity becomes the delta
        // base for that identity.
        if (o.object_seq != 0) {
          std::map<std::uint64_t, pc::EncodedCloud>& mine = bases_[f.vehicle];
          mine[o.object_seq] = o.wire;
          while (mine.size() > kMaxBasesPerVehicle) mine.erase(mine.begin());
        }
        net::ObjectUpload checked = o;
        // Trust only what validated: the decoded buffer is the payload.
        checked.cloud_world = std::move(r.cloud);
        checked.wire = pc::EncodedCloud{};
        checked.wire_present = false;
        kept.objects.push_back(std::move(checked));
        continue;
      }
      if (cfg_.enabled &&
          (!std::isfinite(o.centroid_world.x) ||
           !std::isfinite(o.centroid_world.y) ||
           std::abs(o.centroid_world.x) > cfg_.max_abs_coord ||
           std::abs(o.centroid_world.y) > cfg_.max_abs_coord)) {
        ++dropped_objects;
        ++stats->rejected_semantic;
        continue;
      }
      kept.objects.push_back(o);
    }

    if (cfg_.enabled) {
      if (dropped_objects > 0) {
        note_offense(vs, t, stats);
      } else {
        vs.strikes = std::max(0.0, vs.strikes - cfg_.strike_decay);
        // Clean readmission: a clean frame after the quarantine window has
        // expired resets the backoff ladder, so the vehicle's next
        // quarantine starts at quarantine_base again (the readmission
        // contract documented in ingest_guard.hpp).
        if (vs.quarantines > 0 && t >= vs.quarantine_until) vs.quarantines = 0;
      }
      vs.last_timestamp = f.timestamp;
      vs.last_position = f.pose.position.xy();
      vs.has_last = true;
    }
    // An all-objects-rejected frame still carries a validated pose, which
    // the edge's fleet registry can use.
    admitted.push_back(std::move(kept));
  }

  return admitted;
}

}  // namespace erpd::edge
