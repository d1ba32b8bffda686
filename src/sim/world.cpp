#include "sim/world.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.hpp"
#include "core/rng.hpp"

namespace erpd::sim {

using geom::Obb;
using geom::Vec2;

World::World(RoadNetwork network, WorldConfig cfg)
    : net_(std::move(network)),
      cfg_(cfg),
      signals_(cfg.signal),
      lidar_(cfg.lidar),
      rng_(core::seeded_rng(cfg.seed)),
      maneuver_planner_(cfg.maneuver) {}

AgentId World::add_vehicle(const VehicleParams& params, int route_id,
                           double start_s, double start_speed) {
  ERPD_REQUIRE(route_id >= 0 &&
                   static_cast<std::size_t>(route_id) < net_.routes().size(),
               "World::add_vehicle: route ", route_id, " out of range [0, ",
               net_.routes().size(), ")");
  ERPD_REQUIRE(start_speed >= 0.0,
               "World::add_vehicle: start_speed must be >= 0, got ",
               start_speed);
  const AgentId id = next_id_++;
  vehicles_.emplace_back(id, params, route_id, start_s, start_speed);
  return id;
}

AgentId World::schedule_vehicle(double spawn_time, const VehicleParams& params,
                                int route_id, double start_s,
                                double start_speed, int lane_change_direction,
                                double lane_change_trigger_s) {
  ERPD_REQUIRE(route_id >= 0 &&
                   static_cast<std::size_t>(route_id) < net_.routes().size(),
               "World::schedule_vehicle: route ", route_id,
               " out of range [0, ", net_.routes().size(), ")");
  ERPD_REQUIRE(spawn_time >= 0.0 && std::isfinite(spawn_time),
               "World::schedule_vehicle: spawn_time must be finite and >= 0, "
               "got ", spawn_time);
  ERPD_REQUIRE(start_speed >= 0.0,
               "World::schedule_vehicle: start_speed must be >= 0, got ",
               start_speed);
  ERPD_REQUIRE(lane_change_direction >= -1 && lane_change_direction <= 1,
               "World::schedule_vehicle: lane_change_direction must be in "
               "{-1, 0, 1}, got ", lane_change_direction);
  const AgentId id = next_id_++;
  pending_.push_back({spawn_time, params, route_id, start_s, start_speed, id,
                      lane_change_direction, lane_change_trigger_s});
  return id;
}

void World::materialize_pending_spawns() {
  if (pending_.empty()) return;
  std::vector<PendingVehicle> still_pending;
  still_pending.reserve(pending_.size());
  for (PendingVehicle& p : pending_) {
    bool spawn = p.spawn_time <= time_;
    if (spawn) {
      // Hold the spawn while the spot is blocked so a late spawn can never
      // materialize inside another vehicle (instant phantom collision).
      const geom::Vec2 pos = net_.route(p.route_id).path.point_at(p.start_s);
      for (const Vehicle& v : vehicles_) {
        if (v.finished(net_)) continue;
        if (distance(v.position(net_), pos) <
            p.params.dims.length + v.params().dims.length) {
          spawn = false;
          break;
        }
      }
    }
    if (!spawn) {
      still_pending.push_back(std::move(p));
      continue;
    }
    vehicles_.emplace_back(p.id, p.params, p.route_id, p.start_s,
                           p.start_speed);
    if (p.lane_change_direction != 0) {
      vehicles_.back().set_lane_change_directive(p.lane_change_direction,
                                                 p.lane_change_trigger_s);
    }
  }
  pending_ = std::move(still_pending);
}

AgentId World::add_pedestrian(const PedestrianParams& params,
                              geom::Polyline path, double start_s) {
  const AgentId id = next_id_++;
  pedestrians_.emplace_back(id, params, std::move(path), start_s);
  return id;
}

void World::add_static_obstacle(const geom::Obb& footprint, double height) {
  statics_.push_back({footprint, height});
}

Vehicle* World::find_vehicle(AgentId id) {
  for (Vehicle& v : vehicles_) {
    if (v.id() == id) return &v;
  }
  return nullptr;
}

const Vehicle* World::find_vehicle(AgentId id) const {
  for (const Vehicle& v : vehicles_) {
    if (v.id() == id) return &v;
  }
  return nullptr;
}

const Pedestrian* World::find_pedestrian(AgentId id) const {
  for (const Pedestrian& p : pedestrians_) {
    if (p.id() == id) return &p;
  }
  return nullptr;
}

std::size_t World::pair_slot(AgentId a, AgentId b) {
  if (a > b) std::swap(a, b);
  const auto hi = static_cast<std::size_t>(b);
  return hi * (hi - 1) / 2 + static_cast<std::size_t>(a);
}

void World::snapshot_geometry() {
  vehicle_boxes_.resize(vehicles_.size());
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    if (!vehicles_[i].finished(net_)) vehicle_boxes_[i] = vehicles_[i].obb(net_);
  }
  pedestrian_boxes_.resize(pedestrians_.size());
  for (std::size_t i = 0; i < pedestrians_.size(); ++i) {
    if (!pedestrians_[i].finished()) pedestrian_boxes_[i] = pedestrians_[i].obb();
  }
}

double World::delayed_speed(AgentId id, double delay) const {
  const auto it = speed_hist_.find(id);
  if (it == speed_hist_.end() || it->second.empty()) {
    const Vehicle* v = find_vehicle(id);
    return v != nullptr ? v->speed() : 0.0;
  }
  const double want = time_ - delay;
  // History is ordered by time; return the newest sample not after `want`.
  double best = it->second.front().second;
  for (const auto& [t, v] : it->second) {
    if (t <= want) {
      best = v;
    } else {
      break;
    }
  }
  return best;
}

std::optional<std::size_t> World::find_leader(std::size_t vi) const {
  const Vehicle& me = vehicles_[vi];
  const geom::Polyline& path = net_.route(me.route_id()).path;
  const double my_s = me.s();
  const Vec2 my_point = path.point_at(my_s);
  std::optional<std::size_t> best;
  double best_gap = kLeaderLookahead;
  for (std::size_t j = 0; j < vehicles_.size(); ++j) {
    if (j == vi) continue;
    const Vehicle& other = vehicles_[j];
    if (other.finished(net_)) continue;
    // A vehicle out of leader reach fails the lateral or the gap test
    // below, so its projection is skipped.
    if (distance(vehicle_boxes_[j].center(), my_point) >
        leader_reach(kLeaderLookahead, net_.config().lane_width,
                     me.params().dims.length, other.params().dims.length)) {
      continue;
    }
    double lateral = 0.0;
    const double s_other = path.project(vehicle_boxes_[j].center(), &lateral);
    if (lateral > net_.config().lane_width * 0.5) continue;
    const double center_gap = s_other - my_s;
    if (center_gap <= 0.0) continue;
    const double gap = center_gap - 0.5 * me.params().dims.length -
                       0.5 * other.params().dims.length;
    if (gap < best_gap) {
      best_gap = gap;
      best = j;
    }
  }
  return best;
}

std::optional<World::ConflictInfo> World::hazard_conflict(
    const Vehicle& me, const geom::Polyline& ahead, AgentId hazard_id) const {
  // Current hazard kinematics (ground truth of the agent, as a driver who is
  // aware of it would estimate).
  Vec2 hpos;
  Vec2 hvel;
  double hlen = 1.0;
  if (const Vehicle* hv = find_vehicle(hazard_id)) {
    if (hv->finished(net_) || hv->params().parked) return std::nullopt;
    hpos = hv->position(net_);
    hvel = hv->velocity(net_);
    hlen = hv->params().dims.length;
  } else if (const Pedestrian* hp = find_pedestrian(hazard_id)) {
    if (hp->finished()) return std::nullopt;
    hpos = hp->position();
    hvel = hp->velocity();
    hlen = hp->params().dims.length;
  } else {
    return std::nullopt;
  }

  if (ahead.empty()) return std::nullopt;

  const double hspeed = hvel.norm();
  const double my_speed = std::max(me.speed(), 0.5);
  if (hspeed < 0.3) {
    // (Nearly) stationary hazard sitting on my path: conflict at its
    // location; it is "at" the conflict point now (t_hazard = 0).
    double lateral = 0.0;
    const double s_on = ahead.project(hpos, &lateral);
    if (lateral > 0.5 * (me.params().dims.width + hlen)) return std::nullopt;
    return ConflictInfo{me.s() + s_on, s_on / my_speed, 0.0};
  }

  // Moving hazard: straight-line projection. The projected path stops just
  // past the hazard's current reach so that a hazard that has already
  // passed the crossing no longer conflicts.
  const geom::Polyline hpath{
      {hpos,
       hpos + hvel.normalized() * (hspeed * (kHazardHorizon + 3.0) + hlen)}};
  const auto crossing = ahead.first_crossing(hpath);
  if (!crossing) return std::nullopt;
  return ConflictInfo{me.s() + crossing->s_this, crossing->s_this / my_speed,
                      crossing->s_other / hspeed};
}

double World::control_vehicle(std::size_t vi) {
  Vehicle& me = vehicles_[vi];
  const Route& route = net_.route(me.route_id());
  const IdmModel& idm = me.params().idm;

  // 1) Car following with reaction-delayed leader speed.
  double accel = idm.acceleration(me.speed(), 0.0, IdmModel::free_road());
  if (const auto leader = find_leader(vi)) {
    const Vehicle& lead = vehicles_[*leader];
    const geom::Polyline& path = route.path;
    const double s_lead = path.project(vehicle_boxes_[*leader].center());
    const double gap = s_lead - me.s() - 0.5 * me.params().dims.length -
                       0.5 * lead.params().dims.length;
    const double v_lead_seen =
        delayed_speed(lead.id(), me.params().reaction_time);
    accel = std::min(
        accel, idm.acceleration(me.speed(), v_lead_seen, std::max(gap, 0.05)));
  }

  // Inattentive drivers execute the car-following command they computed one
  // reaction time ago (human output delay). Attentive drivers (and the
  // automated controller baseline) react instantly.
  if (!me.params().attentive) {
    auto& hist = follow_accel_hist_[me.id()];
    hist.emplace_back(time_, accel);
    while (!hist.empty() && hist.front().first < time_ - 3.0) hist.pop_front();
    const double want = time_ - me.params().reaction_time;
    double delayed = hist.front().second;
    for (const auto& [ht, ha] : hist) {
      if (ht <= want) {
        delayed = ha;
      } else {
        break;
      }
    }
    accel = delayed;
  }

  // 2) Traffic signal at the stop line.
  if (!me.params().runs_red_light && me.s() < route.stop_line_s) {
    const auto light = signals_.state(route.entry_arm, time_);
    bool must_stop = light == SignalController::Light::kRed;
    if (light == SignalController::Light::kYellow) {
      const double dist = route.stop_line_s - me.s();
      const double comfort_stop =
          me.speed() * me.speed() / (2.0 * idm.comfort_decel);
      must_stop = dist > comfort_stop;  // stop if we comfortably can
    }
    if (must_stop) {
      const double gap =
          route.stop_line_s - me.s() - 0.5 * me.params().dims.length;
      accel = std::min(accel,
                       idm.acceleration(me.speed(), 0.0, std::max(gap, 0.05)));
    }
  }

  // 3) Hazard reaction: hard brake `reaction_time` after becoming aware of a
  //    conflicting object. Per the paper's evaluation setup, awareness comes
  //    from disseminated perception data; own-sensor sightings only count
  //    for attentive drivers.
  // My route over the hazard lookahead, sliced once for every hazard.
  std::optional<geom::Polyline> ahead;
  for (const auto& [hazard_id, knowledge] : me.known_hazards()) {
    if (!knowledge.from_dissemination && !me.params().attentive) continue;
    if (time_ - knowledge.aware_since < me.params().reaction_time) continue;

    if (!ahead) {
      const double lookahead =
          std::max(25.0, me.speed() * kHazardHorizon + 15.0);
      ahead = route.path.slice(me.s(), me.s() + lookahead);
    }
    const auto conflict = hazard_conflict(me, *ahead, hazard_id);

    // Yield-latch policy: start yielding when the conflict is imminent;
    // hold a fixed stop target until the hazard clears the crossing (the
    // geometric conflict disappears); never creep forward on momentary TTC
    // fluctuation.
    if (me.yielding_to(hazard_id)) {
      if (!conflict) {
        me.end_yield(hazard_id);
        continue;
      }
    } else {
      if (!conflict) continue;
      const bool imminent = conflict->t_me < kHazardHorizon &&
                            conflict->t_hazard < kHazardHorizon &&
                            std::abs(conflict->t_me - conflict->t_hazard) <
                                kConflictMargin + 2.0;
      if (!imminent) continue;
      me.start_yield(hazard_id,
                     conflict->s_conflict - 6.0 - 0.5 * me.params().dims.length);
    }

    const double stop_gap = me.yield_stop_s(hazard_id) - me.s();
    if (stop_gap > 0.3) {
      accel = std::min(accel, idm.acceleration(me.speed(), 0.0, stop_gap));
    } else if (me.speed() > 0.5 &&
               conflict->s_conflict - me.s() > 0.5 * me.params().dims.length) {
      // Past the planned stop point but not yet in the conflict area:
      // emergency brake.
      accel = -me.params().max_brake;
    }
    // Else: inside/at the conflict area already - committed, keep moving.
  }
  return accel;
}

void World::load_occluders(std::size_t vi, std::span<const Obb> boxes,
                           SightOccluders& sight) const {
  sight.reset(boxes[vi].center());
  for (std::size_t j = 0; j < vehicles_.size(); ++j) {
    if (j == vi || vehicles_[j].finished(net_)) continue;
    sight.add(boxes[j], j);
  }
  // Statics carry vehicles_.size(), which no target skips. Pedestrians are
  // too small to occlude vehicles meaningfully.
  for (const StaticObstacle& s : statics_) sight.add(s.footprint, vehicles_.size());
}

bool World::sees(const SightOccluders& sight, Vec2 target, std::size_t skip,
                 std::uint64_t& ray_tests) const {
  return distance(sight.eye(), target) <= kSensorRange &&
         sight.visible(target, skip, ray_tests);
}

void World::sense_hazards(StepStats& stats) {
  for (std::size_t vi = 0; vi < vehicles_.size(); ++vi) {
    Vehicle& v = vehicles_[vi];
    if (v.params().parked || v.crashed() || v.finished(net_)) continue;
    load_occluders(vi, vehicle_boxes_, sight_);
    for (std::size_t j = 0; j < vehicles_.size(); ++j) {
      const Vehicle& other = vehicles_[j];
      if (j == vi || other.params().parked) continue;
      if (other.finished(net_) || other.crashed()) continue;
      if (sees(sight_, vehicle_boxes_[j].center(), j, stats.occlusion_ray_tests)) {
        v.learn_hazard(other.id(), time_, false);
      }
    }
    for (std::size_t j = 0; j < pedestrians_.size(); ++j) {
      const Pedestrian& p = pedestrians_[j];
      if (p.finished()) continue;
      if (sees(sight_, pedestrian_boxes_[j].center(), kNoSlot,
               stats.occlusion_ray_tests)) {
        v.learn_hazard(p.id(), time_, false);
      }
    }
  }
}

StepStats World::step() {
  StepStats stats;
  materialize_pending_spawns();

  // Maneuver layer (off by default): advance each vehicle's lateral state
  // machine against the pre-step world, in storage order. A committed lane
  // change mutates that vehicle's route before later vehicles observe gaps —
  // sequential and deterministic, like the control loop below.
  if (cfg_.maneuver.enabled) {
    for (Vehicle& v : vehicles_) {
      if (v.params().parked || v.crashed() || v.finished(net_)) continue;
      maneuver_planner_.update(v, net_, vehicles_, signals_, time_);
    }
  }

  // Sensing and control read the pre-step footprints; nothing moves until
  // every control is computed.
  snapshot_geometry();
  sense_hazards(stats);

  // Compute controls against the pre-step state, then integrate.
  std::vector<double> accels(vehicles_.size(), 0.0);
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    Vehicle& v = vehicles_[i];
    if (v.params().parked || v.crashed() || v.finished(net_)) continue;
    accels[i] = control_vehicle(i);
  }
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    Vehicle& v = vehicles_[i];
    if (v.finished(net_)) continue;
    v.advance(accels[i], kFrameInterval);
  }
  for (Pedestrian& p : pedestrians_) {
    if (!p.finished()) p.advance(kFrameInterval);
  }

  time_ += kFrameInterval;

  // Record speed history for delayed perception.
  for (const Vehicle& v : vehicles_) {
    auto& hist = speed_hist_[v.id()];
    hist.emplace_back(time_, v.speed());
    while (!hist.empty() && hist.front().first < time_ - 3.0) {
      hist.pop_front();
    }
  }

  // Collisions and pair distances read the post-step footprints.
  snapshot_geometry();
  detect_collisions();
  update_pair_distances();
  return stats;
}

void World::detect_collisions() {
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    Vehicle& a = vehicles_[i];
    if (a.finished(net_)) continue;
    const Obb& box_a = vehicle_boxes_[i];
    for (std::size_t j = i + 1; j < vehicles_.size(); ++j) {
      Vehicle& b = vehicles_[j];
      if (b.finished(net_)) continue;
      if (a.crashed() && b.crashed()) continue;
      const Obb& box_b = vehicle_boxes_[j];
      if (box_a.overlaps(box_b)) {
        collisions_.push_back(
            {a.id(), b.id(), time_, (box_a.center() + box_b.center()) * 0.5});
        a.mark_crashed();
        b.mark_crashed();
      }
    }
    for (std::size_t j = 0; j < pedestrians_.size(); ++j) {
      const Pedestrian& p = pedestrians_[j];
      if (p.finished()) continue;
      if (a.crashed()) continue;
      const Obb& box_p = pedestrian_boxes_[j];
      if (box_a.overlaps(box_p)) {
        collisions_.push_back(
            {a.id(), p.id(), time_, (box_a.center() + box_p.center()) * 0.5});
        a.mark_crashed();
      }
    }
  }
}

void World::update_pair_distances() {
  const auto ids = static_cast<std::size_t>(next_id_);
  if (ids > 1) {
    pair_min_dist_.resize(ids * (ids - 1) / 2,
                          std::numeric_limits<double>::infinity());
  }
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    const Vehicle& a = vehicles_[i];
    if (a.finished(net_) || a.params().parked) continue;
    const Obb& box_a = vehicle_boxes_[i];
    for (std::size_t j = i + 1; j < vehicles_.size(); ++j) {
      const Vehicle& b = vehicles_[j];
      if (b.finished(net_) || b.params().parked) continue;
      double& slot = pair_min_dist_[pair_slot(a.id(), b.id())];
      const double d = box_a.distance_to(vehicle_boxes_[j]);
      slot = std::min(slot, d);
      global_min_distance_ = std::min(global_min_distance_, d);
    }
    for (std::size_t j = 0; j < pedestrians_.size(); ++j) {
      const Pedestrian& p = pedestrians_[j];
      if (p.finished()) continue;
      double& slot = pair_min_dist_[pair_slot(a.id(), p.id())];
      const double d = box_a.distance_to(pedestrian_boxes_[j]);
      slot = std::min(slot, d);
      global_min_ped_distance_ = std::min(global_min_ped_distance_, d);
    }
  }
}

std::vector<LidarTarget> World::lidar_targets(AgentId exclude) const {
  std::vector<LidarTarget> out;
  out.reserve(vehicles_.size() + pedestrians_.size() + statics_.size());
  for (const Vehicle& v : vehicles_) {
    if (v.id() == exclude || v.finished(net_)) continue;
    out.push_back({v.obb(net_), 0.0, v.params().dims.height, v.id()});
  }
  for (const Pedestrian& p : pedestrians_) {
    if (p.id() == exclude || p.finished()) continue;
    out.push_back({p.obb(), 0.0, p.params().dims.height, p.id()});
  }
  AgentId static_id = -2;
  for (const StaticObstacle& s : statics_) {
    out.push_back({s.footprint, 0.0, s.height, static_id--});
  }
  return out;
}

LidarScan World::scan_from(AgentId vehicle_id) const {
  LidarScan out;
  scan_from(vehicle_id, out);
  return out;
}

void World::scan_from(AgentId vehicle_id, LidarScan& out) const {
  const Vehicle* v = find_vehicle(vehicle_id);
  if (v == nullptr) {
    out = {};
    return;
  }
  const auto targets = lidar_targets(vehicle_id);
  // Per-scan RNG seeded from (world seed, vehicle, tick): the noise stream
  // is a pure function of who scans when, never of which other vehicles
  // scanned first — scans can run concurrently and stay deterministic.
  const auto tick =
      static_cast<std::uint64_t>(std::llround(time_ / kFrameInterval));
  std::mt19937_64 scan_rng = core::seeded_rng(core::seed_mix(
      cfg_.seed, static_cast<std::uint64_t>(vehicle_id), tick));
  lidar_.scan(v->sensor_pose(net_), targets, scan_rng, out);
}

bool World::agent_visible_from(AgentId viewer, AgentId target) const {
  // step()'s sensing path for one (viewer, target), on live footprints.
  std::vector<Obb> boxes;
  boxes.reserve(vehicles_.size());
  std::optional<std::size_t> vi;
  std::optional<Vec2> tpos;
  std::size_t skip = kNoSlot;
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    const Vehicle& v = vehicles_[i];
    boxes.push_back(v.obb(net_));
    if (v.id() == viewer) vi = i;
    if (v.id() == target) {
      if (v.finished(net_)) return false;
      tpos = boxes.back().center();
      skip = i;
    }
  }
  if (!tpos) {
    const Pedestrian* p = find_pedestrian(target);
    if (p == nullptr || p->finished()) return false;
    tpos = p->position();
  }
  if (!vi) return false;

  SightOccluders sight;
  load_occluders(*vi, boxes, sight);
  std::uint64_t ray_tests = 0;
  return sees(sight, *tpos, skip, ray_tests);
}

void World::notify_vehicle(AgentId vehicle, AgentId hazard) {
  if (Vehicle* v = find_vehicle(vehicle)) {
    v->learn_hazard(hazard, time_, true);
  }
}

bool World::agent_crashed(AgentId id) const {
  for (const CollisionEvent& c : collisions_) {
    if (c.a == id || c.b == id) return true;
  }
  return false;
}

double World::min_pair_distance(AgentId a, AgentId b) const {
  if (a == b || a < 0 || b < 0) return std::numeric_limits<double>::infinity();
  const std::size_t slot = pair_slot(a, b);
  return slot < pair_min_dist_.size() ? pair_min_dist_[slot]
                                      : std::numeric_limits<double>::infinity();
}

std::vector<AgentSnapshot> World::snapshot() const {
  std::vector<AgentSnapshot> out;
  out.reserve(vehicles_.size() + pedestrians_.size());
  for (const Vehicle& v : vehicles_) {
    if (v.finished(net_)) continue;
    out.push_back({v.id(), v.params().kind, v.position(net_), v.heading(net_),
                   v.velocity(net_), v.params().dims, v.params().connected,
                   v.params().parked});
  }
  for (const Pedestrian& p : pedestrians_) {
    if (p.finished()) continue;
    out.push_back({p.id(), AgentKind::kPedestrian, p.position(), p.heading(),
                   p.velocity(), p.params().dims, false, false});
  }
  return out;
}

bool World::passed_intersection(AgentId vehicle_id) const {
  const Vehicle* v = find_vehicle(vehicle_id);
  if (v == nullptr) return false;
  return v->s() >= net_.route(v->route_id()).box_exit_s;
}

}  // namespace erpd::sim
