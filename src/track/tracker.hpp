#pragma once
// Multi-object tracker at the edge server (paper's Object Tracking module).
//
// Consumes per-frame detections (object centroids from merged uploads, plus
// the connected vehicles' own poses, which are exact) and maintains
// confirmed tracks with Kalman-smoothed kinematics. Association is gated
// greedy nearest-neighbour, which is adequate at traffic-map density.

#include <optional>
#include <vector>

#include "geom/vec2.hpp"
#include "sim/types.hpp"
#include "track/kalman.hpp"

namespace erpd::track {

/// One detection handed to the tracker for a frame.
struct Detection {
  geom::Vec2 position{};
  /// Velocity estimate if the reporter had one (frame differencing).
  std::optional<geom::Vec2> velocity;
  /// Apparent kind of this (possibly partial) view. Advisory: a far or
  /// partially occluded car can look pedestrian-sized, so association goes
  /// by distance and a track's kind upgrades once any view is car-sized.
  sim::AgentKind kind{sim::AgentKind::kCar};
  /// Largest planar extent of this view (meters).
  double extent{0.0};
  /// Bytes of the object's perception payload (carried through so the
  /// dissemination stage knows each object's data size s_i).
  std::size_t payload_bytes{0};
  std::size_t point_count{0};
  /// Ground-truth id (harness scoring only; kInvalidAgent if unknown).
  sim::AgentId truth_id{sim::kInvalidAgent};
};

/// Association gate (meters).
inline constexpr double kAssociationGate = 3.5;
/// Updates needed to confirm a track.
inline constexpr int kConfirmHits = 2;
/// Missed frames before a track is dropped.
inline constexpr int kMaxMisses = 4;
/// Measurement sigma assumed for velocity observations (m/s).
inline constexpr double kVelMeasSigma = 1.0;
static_assert(kAssociationGate > 0.0 && kConfirmHits >= 1 &&
              kMaxMisses >= 0 && kVelMeasSigma > 0.0);

struct TrackerConfig {
  /// Extra missed frames a *confirmed* track survives beyond kMaxMisses,
  /// coasting on its Kalman constant-velocity prediction. This is the
  /// graceful-degradation knob for lossy uplinks: when a vehicle's upload is
  /// dropped, the object it was reporting keeps a (staler) track instead of
  /// vanishing from the traffic map. 0 (default) preserves the exact
  /// lossless-pipeline lifetime rule.
  int max_coast_frames{0};
};

struct Track {
  int id{-1};
  sim::AgentKind kind{sim::AgentKind::kCar};
  KalmanCV filter;
  int hits{0};
  int misses{0};
  double last_update{0.0};
  /// Largest planar extent ever observed for this track.
  double max_extent{0.0};
  /// Latest payload metadata from the most recent matched detection.
  std::size_t payload_bytes{0};
  std::size_t point_count{0};
  sim::AgentId truth_id{sim::kInvalidAgent};

  bool confirmed() const { return hits >= kConfirmHits; }
  geom::Vec2 position() const { return filter.position(); }
  geom::Vec2 velocity() const { return filter.velocity(); }
};

class MultiObjectTracker {
 public:
  explicit MultiObjectTracker(TrackerConfig cfg = {});

  /// Advance all tracks to `t` and fuse this frame's detections.
  void step(const std::vector<Detection>& detections, double t);

  const std::vector<Track>& tracks() const { return tracks_; }

  /// Confirmed tracks only.
  std::vector<const Track*> confirmed() const;

  const Track* find(int track_id) const;

 private:
  TrackerConfig cfg_;
  std::vector<Track> tracks_;
  int next_id_{0};
  std::optional<double> last_t_;
};

}  // namespace erpd::track
