#pragma once
// The simulated world: road network + signals + agents + static scenery.
//
// World::step advances all agents by one tick. Vehicle control mirrors the
// paper's evaluation setup: a default microscopic controller (IDM, standing
// in for CARLA's autopilot) plus a "simple logic to simulate human drivers'
// reactions" — a driver becomes aware of a hazard either by seeing it
// (line-of-sight) or by receiving disseminated perception data, and brakes
// hard one reaction time later if the hazard is on a conflicting course.
// Followers perceive their leader's *speed* with the same reaction delay,
// which is what makes sudden leader braking dangerous (paper §III-A.2).

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "sim/agent.hpp"
#include "sim/lidar.hpp"
#include "sim/maneuver.hpp"
#include "sim/road_network.hpp"
#include "sim/types.hpp"

namespace erpd::sim {

struct WorldConfig {
  double dt{0.1};
  /// LiDAR mount height above ground (roof).
  double sensor_height{1.9};
  /// Perception range for both LiDAR and driver line-of-sight (meters).
  double sensor_range{50.0};
  /// How far ahead (seconds) drivers project hazards.
  double hazard_horizon{6.0};
  /// Passing-time difference below which a crossing is a conflict (seconds).
  double conflict_margin{2.5};
  /// Leader search distance along the route (meters).
  double leader_lookahead{60.0};
  /// Force-override: when true, even inattentive vehicles react to hazards
  /// they can see. Per-vehicle behaviour is VehicleParams::attentive; the
  /// scripted conflict vehicles are inattentive so that (per the paper's
  /// setup, §IV-C.1) only disseminated perception data makes them brake.
  bool react_to_visible_hazards{false};
  SignalController::Timing signal{};
  LidarConfig lidar{};
  /// Maneuver layer above car_following (DESIGN.md §15). Disabled by
  /// default: the planner never runs and behavior is bit-identical to the
  /// pre-maneuver simulator.
  ManeuverConfig maneuver{};
  std::uint64_t seed{1};
};

struct CollisionEvent {
  AgentId a{kInvalidAgent};
  AgentId b{kInvalidAgent};
  double time{0.0};
  geom::Vec2 position{};
};

/// World-truth snapshot of one agent (consumed by metrics and by the edge
/// modules when they need ground truth for scoring).
struct AgentSnapshot {
  AgentId id{kInvalidAgent};
  AgentKind kind{AgentKind::kCar};
  geom::Vec2 position{};
  double heading{0.0};
  geom::Vec2 velocity{};
  BodyDims dims{};
  bool connected{false};
  bool parked{false};
};

/// Work one World::step did, returned for the caller to book.
struct StepStats {
  /// Occluder ray casts (ray_hit calls) of the drivers' line-of-sight pass.
  std::uint64_t occlusion_ray_tests{0};
};

/// Farthest a leader's center can sit from the follower's own route point
/// and still pass World's leader tests: lateral distance to the route at
/// most lane_width / 2, and a center gap (arc length ahead) under
/// lookahead + both half-lengths. The projection point is at most that gap
/// of arc, so of chord, ahead, and the center lies within half a lane of
/// it. The 1e-6 m slack covers rounding in the projection.
inline double leader_reach(double lookahead, double lane_width,
                           double my_length, double other_length) {
  return lookahead + 0.5 * lane_width + 0.5 * (my_length + other_length) +
         1e-6;
}

class World {
 public:
  World(RoadNetwork network, WorldConfig cfg);

  const RoadNetwork& network() const { return net_; }
  const SignalController& signals() const { return signals_; }
  const WorldConfig& config() const { return cfg_; }
  double time() const { return time_; }
  std::mt19937_64& rng() { return rng_; }

  AgentId add_vehicle(const VehicleParams& params, int route_id,
                      double start_s, double start_speed);
  AgentId add_pedestrian(const PedestrianParams& params, geom::Polyline path,
                         double start_s = 0.0);

  /// Deferred spawn: the vehicle materializes at the first step() with
  /// time >= spawn_time whose spawn spot is clear (a blocked spawn retries
  /// next tick). The id is assigned now, so ids are a pure function of the
  /// add/schedule call sequence regardless of when spawns land. An optional
  /// lane-change directive arms the maneuver layer for this vehicle.
  AgentId schedule_vehicle(double spawn_time, const VehicleParams& params,
                           int route_id, double start_s, double start_speed,
                           int lane_change_direction = 0,
                           double lane_change_trigger_s = 0.0);
  /// Vehicles scheduled but not yet materialized.
  std::size_t pending_vehicles() const { return pending_.size(); }
  /// Static scenery (buildings, barriers): occludes LiDAR and sight.
  void add_static_obstacle(const geom::Obb& footprint, double height);

  const std::vector<Vehicle>& vehicles() const { return vehicles_; }
  std::vector<Vehicle>& vehicles() { return vehicles_; }
  const std::vector<Pedestrian>& pedestrians() const { return pedestrians_; }

  Vehicle* find_vehicle(AgentId id);
  const Vehicle* find_vehicle(AgentId id) const;
  const Pedestrian* find_pedestrian(AgentId id) const;

  /// Advance the world by one tick (cfg.dt).
  StepStats step();

  // --- Perception support -------------------------------------------------

  /// All LiDAR-visible prisms except the viewer itself.
  std::vector<LidarTarget> lidar_targets(AgentId exclude = kInvalidAgent) const;

  /// Ray-cast LiDAR scan from a vehicle's roof sensor. Noise is seeded
  /// per (world seed, vehicle, tick), so concurrent scans from different
  /// vehicles are independent and deterministic.
  LidarScan scan_from(AgentId vehicle_id) const;
  /// The same scan written into `out` (capacity reused); an unknown vehicle
  /// leaves it empty.
  void scan_from(AgentId vehicle_id, LidarScan& out) const;

  /// Driver/sensor line-of-sight check (range + occlusion).
  bool agent_visible_from(AgentId viewer, AgentId target) const;

  /// Edge-server dissemination entry point: hand perception data about
  /// `hazard` to `vehicle`. The driver reacts one reaction time later.
  void notify_vehicle(AgentId vehicle, AgentId hazard);

  // --- Metrics -------------------------------------------------------------

  const std::vector<CollisionEvent>& collisions() const { return collisions_; }
  bool agent_crashed(AgentId id) const;

  /// Minimum distance ever observed between the two agents (inf if never
  /// both present). Tracks vehicle-vehicle and vehicle-pedestrian pairs.
  double min_pair_distance(AgentId a, AgentId b) const;
  /// Minimum over all vehicle pairs ever observed.
  double min_vehicle_distance() const { return global_min_distance_; }
  /// Minimum over all (vehicle, pedestrian) pairs ever observed (inf if no
  /// pedestrian ever shared a frame with a vehicle). Near-miss metric for
  /// the scenario-search harness.
  double min_vehicle_pedestrian_distance() const {
    return global_min_ped_distance_;
  }

  std::vector<AgentSnapshot> snapshot() const;

  /// True once a vehicle has traversed the intersection box.
  bool passed_intersection(AgentId vehicle_id) const;

 private:
  RoadNetwork net_;
  WorldConfig cfg_;
  SignalController signals_;
  LidarSensor lidar_;
  // detlint: D2 the world's single sequential stream (agent spawning and
  // other strictly-ordered draws); seeded once from WorldConfig::seed via
  // core::seeded_rng in the constructor. Concurrent stages never touch it —
  // they derive per-unit SplitMix64 streams instead.
  std::mt19937_64 rng_;
  double time_{0.0};
  AgentId next_id_{0};

  std::vector<Vehicle> vehicles_;
  std::vector<Pedestrian> pedestrians_;
  struct StaticObstacle {
    geom::Obb footprint;
    double height;
  };
  std::vector<StaticObstacle> statics_;

  /// Deferred spawns, processed in schedule order at the top of step().
  struct PendingVehicle {
    double spawn_time;
    VehicleParams params;
    int route_id;
    double start_s;
    double start_speed;
    AgentId id;
    int lane_change_direction;
    double lane_change_trigger_s;
  };
  std::vector<PendingVehicle> pending_;
  ManeuverPlanner maneuver_planner_;

  std::vector<CollisionEvent> collisions_;
  /// Minimum distance per agent pair, a dense lower-triangular matrix over
  /// agent ids (ids are dense from 0): pair (lo, hi) sits at
  /// hi * (hi - 1) / 2 + lo. It grows by appending rows as ids appear;
  /// never-observed pairs hold infinity.
  std::vector<double> pair_min_dist_;
  double global_min_distance_{std::numeric_limits<double>::infinity()};

  /// Per-step geometry (DESIGN.md §19): each live agent's footprint,
  /// computed once and read by every pair test of the phase that took it.
  /// Slot-indexed like vehicles_ / pedestrians_; a finished agent's slot is
  /// stale and never read. Reused across steps, so a step allocates
  /// nothing once the fleet has reached its size.
  std::vector<geom::Obb> vehicle_boxes_;
  std::vector<geom::Obb> pedestrian_boxes_;
  /// Occluders seen from the current viewer in sense_hazards.
  SightOccluders sight_;

  /// Recent speed history per vehicle for delayed-perception following.
  /// Ordered by AgentId (detlint D1), as above.
  std::map<AgentId, std::deque<std::pair<double, double>>> speed_hist_;
  /// Recent car-following acceleration commands per vehicle. Inattentive
  /// drivers apply the command computed one reaction time ago (classical
  /// human output delay), which is what makes them rear-end a hard-braking
  /// leader from a short gap (paper §III-A.2).
  std::map<AgentId, std::deque<std::pair<double, double>>>
      follow_accel_hist_;

  /// Geometric conflict between a vehicle's route and a hazard's projected
  /// path.
  struct ConflictInfo {
    /// Absolute arc length (on the vehicle's route) of the conflict point.
    double s_conflict{0.0};
    /// Nominal times for the vehicle / hazard to reach it (seconds).
    double t_me{0.0};
    double t_hazard{0.0};
  };

  double global_min_ped_distance_{std::numeric_limits<double>::infinity()};

  /// Control of vehicles_[vi]; reads the pre-step vehicle_boxes_.
  double control_vehicle(std::size_t vi);
  void materialize_pending_spawns();
  /// Footprints of every live agent into vehicle_boxes_ / pedestrian_boxes_.
  void snapshot_geometry();
  std::optional<std::size_t> find_leader(std::size_t vi) const;
  double delayed_speed(AgentId id, double delay) const;
  /// Crossing between the vehicle's path ahead (`ahead`, its route sliced
  /// over the hazard lookahead) and the hazard's projected path, if any.
  /// Purely geometric; activation/latching policy lives in control_vehicle.
  std::optional<ConflictInfo> hazard_conflict(const Vehicle& me,
                                              const geom::Polyline& ahead,
                                              AgentId hazard_id) const;
  /// No vehicle slot: a pedestrian target skips no occluder.
  static constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
  /// Occluders seen from vehicles_[vi] into `sight`, anchored at its
  /// footprint center: every unfinished vehicle but the viewer, tagged by
  /// slot, and the statics. `boxes` holds every vehicle's footprint by slot.
  void load_occluders(std::size_t vi, std::span<const geom::Obb> boxes,
                      SightOccluders& sight) const;
  /// True if `target` is within sensor range of the sight's eye and no
  /// occluder but vehicle slot `skip` blocks it. Adds its ray tests to
  /// `ray_tests`.
  bool sees(const SightOccluders& sight, geom::Vec2 target, std::size_t skip,
            std::uint64_t& ray_tests) const;
  void sense_hazards(StepStats& stats);
  void detect_collisions();
  void update_pair_distances();
  /// pair_min_dist_ slot of two distinct agents.
  static std::size_t pair_slot(AgentId a, AgentId b);
};

}  // namespace erpd::sim
