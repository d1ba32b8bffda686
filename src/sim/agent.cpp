#include "sim/agent.hpp"

#include <algorithm>

namespace erpd::sim {

Vehicle::Vehicle(AgentId id, VehicleParams params, int route_id,
                 double start_s, double start_speed)
    : id_(id),
      params_(params),
      route_id_(route_id),
      s_(start_s),
      v_(start_speed) {}

geom::Vec2 Vehicle::position(const RoadNetwork& net) const {
  const geom::Polyline& path = net.route(route_id_).path;
  // The branch is load-bearing for the goldens: outside an executing lane
  // change the offset is exactly 0.0 and the returned point must be the
  // same bits the pre-maneuver simulator produced (adding +0.0 could turn
  // a -0.0 coordinate into +0.0).
  if (lat_offset_ == 0.0) return path.point_at(s_);  // lint-ok: R6 exact-inert gate
  return path.point_at(s_) + path.tangent_at(s_).perp() * lat_offset_;
}

double Vehicle::heading(const RoadNetwork& net) const {
  return net.route(route_id_).path.heading_at(s_);
}

geom::Obb Vehicle::obb(const RoadNetwork& net) const {
  return {position(net), heading(net), params_.dims.length,
          params_.dims.width};
}

geom::Pose Vehicle::sensor_pose(const RoadNetwork& net) const {
  geom::Pose p;
  p.position = {position(net), kSensorHeight};
  p.yaw = heading(net);
  return p;
}

geom::Vec2 Vehicle::velocity(const RoadNetwork& net) const {
  return geom::Vec2::from_heading(heading(net)) * v_;
}

bool Vehicle::finished(const RoadNetwork& net) const {
  return s_ >= net.route(route_id_).path.length() - 1e-6;
}

void Vehicle::advance(double accel_cmd, double dt) {
  if (crashed_ || params_.parked) {
    v_ = 0.0;
    a_ = 0.0;
    return;
  }
  a_ = std::clamp(accel_cmd, -params_.max_brake, params_.idm.max_accel);
  const double v_new = std::max(0.0, v_ + a_ * dt);
  // Trapezoidal displacement with the clamped speed.
  s_ += 0.5 * (v_ + v_new) * dt;
  v_ = v_new;
  if (lat_offset_ != 0.0) {  // lint-ok: R6 exact-inert gate
    // Lateral blend toward the target lane center, saturating at exactly 0
    // so the inert-gate comparison above re-arms when the change completes.
    const double step = lat_rate_ * dt;
    if (lat_offset_ > 0.0) {
      lat_offset_ = std::max(0.0, lat_offset_ - step);
    } else {
      lat_offset_ = std::min(0.0, lat_offset_ + step);
    }
  }
}

void Vehicle::learn_hazard(AgentId hazard, double now,
                           bool from_dissemination) {
  const auto it = hazards_.find(hazard);
  if (it == hazards_.end()) {
    hazards_.emplace(hazard, HazardKnowledge{now, from_dissemination});
    return;
  }
  // A dissemination upgrades sensor-only knowledge: the warning is what the
  // driver actually reacts to, so the reaction clock starts at its arrival.
  if (from_dissemination && !it->second.from_dissemination) {
    it->second.from_dissemination = true;
    it->second.aware_since = now;
  }
}

void Vehicle::set_lane_change_directive(int direction, double trigger_s) {
  maneuver_.desired_direction = direction;
  maneuver_.trigger_s = trigger_s;
}

void Vehicle::begin_lane_change(const RoadNetwork& net, int new_route_id,
                                double new_s, double duration) {
  const geom::Vec2 here = position(net);
  route_id_ = new_route_id;
  s_ = new_s;
  const geom::Polyline& path = net.route(new_route_id).path;
  // Signed offset of the physical position from the new lane's centerline
  // (+ = left of travel), carried and blended away by advance().
  const geom::Vec2 delta = here - path.point_at(new_s);
  lat_offset_ = delta.dot(path.tangent_at(new_s).perp());
  lat_rate_ = duration > 0.0 ? std::abs(lat_offset_) / duration
                             : std::abs(lat_offset_);
}

void Vehicle::start_yield(AgentId hazard, double stop_s) {
  const auto it = yields_.find(hazard);
  if (it == yields_.end()) {
    yields_.emplace(hazard, stop_s);
  } else {
    it->second = std::min(it->second, stop_s);
  }
}

Pedestrian::Pedestrian(AgentId id, PedestrianParams params,
                       geom::Polyline path, double start_s)
    : id_(id),
      params_(params),
      path_(std::move(path)),
      s_(start_s),
      speed_(params.walk_speed) {}

geom::Vec2 Pedestrian::position() const { return path_.point_at(s_); }

double Pedestrian::heading() const { return path_.heading_at(s_); }

geom::Obb Pedestrian::obb() const {
  return {position(), heading(), params_.dims.length, params_.dims.width};
}

geom::Vec2 Pedestrian::velocity() const {
  return geom::Vec2::from_heading(heading()) * speed_;
}

bool Pedestrian::finished() const { return s_ >= path_.length() - 1e-6; }

void Pedestrian::advance(double dt) {
  s_ = std::min(s_ + speed_ * dt, path_.length());
}

}  // namespace erpd::sim
