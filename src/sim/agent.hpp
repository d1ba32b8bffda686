#pragma once
// Simulated agents: vehicles (route followers) and pedestrians (crosswalk
// walkers). Agents hold kinematic state; the control policy lives in
// sim::World, which has the global view (leaders, signals, hazards).

#include <map>
#include <optional>
#include <vector>

#include "geom/mat4.hpp"
#include "geom/obb.hpp"
#include "geom/polyline.hpp"
#include "sim/car_following.hpp"
#include "sim/maneuver.hpp"
#include "sim/road_network.hpp"
#include "sim/types.hpp"

namespace erpd::sim {

struct VehicleParams {
  AgentKind kind{AgentKind::kCar};
  BodyDims dims{default_dims(AgentKind::kCar)};
  IdmModel idm{};
  /// Emergency braking capability (m/s^2).
  double max_brake{6.5};
  /// Driver reaction delay between becoming aware of a hazard and braking.
  double reaction_time{1.0};
  /// Connected vehicles upload perception data and receive disseminations.
  bool connected{false};
  /// Attentive drivers also yield to conflicts they can *see* (CARLA-
  /// autopilot-style junction negotiation). The scripted conflict vehicles
  /// are inattentive: per the paper's evaluation setup they decelerate only
  /// for disseminated perception data, which is what makes the occluded
  /// accidents inevitable without the system.
  bool attentive{true};
  /// A violator ignores the signal (red-light-violation scenario).
  bool runs_red_light{false};
  /// Parked/stopped prop (e.g. occluding trucks); never moves.
  bool parked{false};
};

/// A hazard the driver knows about, with when they learned of it; braking
/// starts `reaction_time` after `aware_since`.
struct HazardKnowledge {
  double aware_since{0.0};
  /// True if the knowledge came from the edge server rather than own sensors.
  bool from_dissemination{false};
};

class Vehicle {
 public:
  Vehicle(AgentId id, VehicleParams params, int route_id, double start_s,
          double start_speed);

  AgentId id() const { return id_; }
  const VehicleParams& params() const { return params_; }
  int route_id() const { return route_id_; }

  double s() const { return s_; }
  double speed() const { return v_; }
  double accel() const { return a_; }

  geom::Vec2 position(const RoadNetwork& net) const;
  double heading(const RoadNetwork& net) const;
  geom::Obb obb(const RoadNetwork& net) const;
  /// Sensor pose: roof-mounted LiDAR at kSensorHeight.
  geom::Pose sensor_pose(const RoadNetwork& net) const;
  geom::Vec2 velocity(const RoadNetwork& net) const;

  bool finished(const RoadNetwork& net) const;

  /// Integrate longitudinal dynamics with commanded acceleration.
  void advance(double accel_cmd, double dt);

  /// Hazard bookkeeping (driver memory).
  void learn_hazard(AgentId hazard, double now, bool from_dissemination);
  const std::map<AgentId, HazardKnowledge>& known_hazards() const {
    return hazards_;
  }

  /// Yield latch: once the driver decides to yield to a hazard they hold a
  /// fixed stop target until the hazard clears, instead of re-deciding from
  /// instantaneous TTC every tick (which would creep into the conflict).
  bool yielding_to(AgentId hazard) const { return yields_.contains(hazard); }
  double yield_stop_s(AgentId hazard) const { return yields_.at(hazard); }
  void start_yield(AgentId hazard, double stop_s);
  void end_yield(AgentId hazard) { yields_.erase(hazard); }

  /// Frozen by a collision: vehicle stops where it is.
  bool crashed() const { return crashed_; }
  void mark_crashed() { crashed_ = true; }

  // --- Maneuver layer (DESIGN.md §15; inert while the layer is off) -------

  const ManeuverStatus& maneuver() const { return maneuver_; }
  ManeuverStatus& maneuver() { return maneuver_; }

  /// Arm a lane-change intent: `direction` is -1 (left) or +1 (right),
  /// `trigger_s` the arc length at which the planner starts looking for a
  /// gap. Used by the scenario generator; a no-op unless the world's
  /// maneuver layer is enabled.
  void set_lane_change_directive(int direction, double trigger_s);

  /// Commit a lane change: switch to `new_route_id` at arc length `new_s`,
  /// carrying the current physical position as a lateral offset that decays
  /// to zero over `duration` seconds (the lateral blend).
  void begin_lane_change(const RoadNetwork& net, int new_route_id,
                         double new_s, double duration);

  /// Signed lateral offset from the route path (+ = left of travel). Always
  /// exactly 0.0 outside an executing lane change, so position() reduces to
  /// the pre-maneuver arithmetic bit-for-bit.
  double lateral_offset() const { return lat_offset_; }

 private:
  AgentId id_;
  VehicleParams params_;
  int route_id_;
  double s_;
  double v_;
  double a_{0.0};
  bool crashed_{false};
  ManeuverStatus maneuver_{};
  double lat_offset_{0.0};
  double lat_rate_{0.0};
  std::map<AgentId, HazardKnowledge> hazards_;
  std::map<AgentId, double> yields_;
};

struct PedestrianParams {
  BodyDims dims{default_dims(AgentKind::kPedestrian)};
  double walk_speed{1.35};
};

class Pedestrian {
 public:
  Pedestrian(AgentId id, PedestrianParams params, geom::Polyline path,
             double start_s = 0.0);

  AgentId id() const { return id_; }
  const PedestrianParams& params() const { return params_; }

  double s() const { return s_; }
  double speed() const { return speed_; }

  geom::Vec2 position() const;
  double heading() const;
  geom::Obb obb() const;
  geom::Vec2 velocity() const;

  bool finished() const;

  void advance(double dt);

 private:
  AgentId id_;
  PedestrianParams params_;
  geom::Polyline path_;
  double s_;
  double speed_;
};

}  // namespace erpd::sim
