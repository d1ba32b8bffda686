#pragma once
// Maneuver layer above car_following (ROADMAP item 4, DESIGN.md §15).
//
// The IDM controller in World::control_vehicle handles longitudinal safety;
// this layer adds *lateral* decisions in the state-machine planner shape of
// the CARLA motion-planning reference: a vehicle is always in exactly one of
//   kFollowLane   — default lane keeping,
//   kStopAtLine   — held at a red/yellow signal,
//   kChangeLaneLeft / kChangeLaneRight — a lane change is desired and the
//                   vehicle is waiting for an acceptable gap or executing
//                   the lateral blend into the target lane.
// Transitions are pure functions of the (deterministically ordered) world
// state, so generated traffic replays bit-identically for any thread count.
//
// The whole layer is OFF by default (ManeuverConfig::enabled == false): the
// planner is never consulted and no vehicle ever carries a lateral offset,
// which keeps every pre-existing golden byte-identical.

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/road_network.hpp"
#include "sim/types.hpp"

namespace erpd::sim {

class Vehicle;

enum class ManeuverState : std::uint8_t {
  kFollowLane,
  kStopAtLine,
  kChangeLaneLeft,
  kChangeLaneRight,
};

const char* to_string(ManeuverState s);

struct ManeuverConfig {
  /// Master switch. Off = the planner never runs and positions are
  /// bit-identical to the pre-maneuver simulator.
  bool enabled{false};
  /// Seconds the lateral blend into the target lane takes.
  double lane_change_duration{3.0};
  /// Minimum bumper gap to the new leader at the moment of commit (m).
  double min_lead_gap{6.0};
  /// Minimum bumper gap to the new follower at the moment of commit (m).
  double min_lag_gap{8.0};
  /// Speed-dependent addend: required gap grows by this many seconds of the
  /// relevant vehicle's speed (Gipps-style time-gap acceptance).
  double gap_time_headway{0.8};
  /// Seconds of continuous gap rejection before the change is abandoned.
  double abort_after{4.0};
  /// No change is attempted (and a pending one is aborted) closer than this
  /// to the stop line — mirrors real lane-change prohibition zones.
  double stop_line_clearance{18.0};

  /// Contract-checks every parameter range (ERPD_REQUIRE).
  void validate() const;
};

/// Per-vehicle maneuver bookkeeping. Lives in Vehicle; inert (all zeros)
/// while the layer is disabled.
struct ManeuverStatus {
  ManeuverState state{ManeuverState::kFollowLane};
  /// Scheduled lane-change intent: 0 none, -1 toward lane-1 (left, inner),
  /// +1 toward lane+1 (right, outer). Cleared on completion or abort.
  int desired_direction{0};
  /// Arc length at which the desired change arms (generator directive).
  double trigger_s{0.0};
  /// Time the pending change started waiting for a gap (< 0: not waiting).
  double waiting_since{-1.0};
  int completed_changes{0};
  int aborted_changes{0};
};

/// What the planner saw in the target lane when it evaluated a change.
struct GapObservation {
  /// Bumper gap to the nearest vehicle ahead in the target lane (+inf when
  /// the lane is clear ahead).
  double lead_gap{0.0};
  /// Bumper gap to the nearest vehicle behind (+inf when clear behind).
  double lag_gap{0.0};
  /// Speed of the trailing vehicle (its braking need scales the lag gap).
  double lag_speed{0.0};
};

/// Deterministic Gipps-style gap acceptance: the lead gap must cover the
/// configured minimum plus one time-headway of own speed, the lag gap the
/// minimum plus one time-headway of the trailing vehicle's speed.
bool gap_acceptable(const ManeuverConfig& cfg, double my_speed,
                    const GapObservation& gap);

class ManeuverPlanner {
 public:
  explicit ManeuverPlanner(ManeuverConfig cfg);

  /// Advance one vehicle's maneuver state machine by one tick. May mutate
  /// the vehicle (route switch + lateral offset when a change commits).
  /// Reads the fleet in its (stable) storage order, so the update sequence
  /// is a pure function of world state.
  void update(Vehicle& v, const RoadNetwork& net,
              const std::vector<Vehicle>& fleet,
              const SignalController& signals, double now) const;

  /// Lead/lag gaps the vehicle would face in `target_route`'s lane, for the
  /// commit decision (exposed for unit tests).
  GapObservation observe_gaps(const Vehicle& v, const RoadNetwork& net,
                              const std::vector<Vehicle>& fleet,
                              const Route& target_route) const;

  /// The route the vehicle would switch to for a `direction` change
  /// (preferring its current intersection maneuver, then straight, then
  /// right), or nullopt when the target lane cannot host it.
  std::optional<int> target_route(const Vehicle& v, const RoadNetwork& net,
                                  int direction) const;

 private:
  ManeuverConfig cfg_;
};

}  // namespace erpd::sim
