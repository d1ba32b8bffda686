#include "sim/road_network.hpp"

#include <cmath>

#include "core/check.hpp"

namespace erpd::sim {

using geom::Polyline;
using geom::Vec2;

geom::Vec2 RoadNetwork::arm_direction(Arm a) {
  switch (a) {
    case Arm::kNorth: return {0.0, 1.0};
    case Arm::kEast: return {1.0, 0.0};
    case Arm::kSouth: return {0.0, -1.0};
    case Arm::kWest: return {-1.0, 0.0};
  }
  return {};
}

Arm RoadNetwork::opposite(Arm a) {
  return static_cast<Arm>((static_cast<int>(a) + 2) % kArmCount);
}

namespace {

Arm arm_from_direction(Vec2 d) {
  if (d.y > 0.5) return Arm::kNorth;
  if (d.x > 0.5) return Arm::kEast;
  if (d.y < -0.5) return Arm::kSouth;
  return Arm::kWest;
}

Vec2 rotate_ccw(Vec2 v) { return {-v.y, v.x}; }
Vec2 rotate_cw(Vec2 v) { return {v.y, -v.x}; }
/// Unit vector pointing to the right of travel direction d.
Vec2 right_of(Vec2 d) { return rotate_cw(d); }

}  // namespace

Arm RoadNetwork::exit_arm(Arm entry, Maneuver m) {
  const Vec2 d = -arm_direction(entry);  // travel direction of the approach
  switch (m) {
    case Maneuver::kStraight: return opposite(entry);
    case Maneuver::kLeft: return arm_from_direction(rotate_ccw(d));
    case Maneuver::kRight: return arm_from_direction(rotate_cw(d));
  }
  return opposite(entry);
}

SignalController::Light SignalController::state(Arm arm, double time) const {
  const double half = t_.green + t_.yellow + t_.all_red;
  double pt = std::fmod(time, cycle_length());
  if (pt < 0.0) pt += cycle_length();
  // Phase A (first half of the cycle) serves N/S; phase B serves E/W.
  const bool ns = arm == Arm::kNorth || arm == Arm::kSouth;
  const double local = ns ? pt : pt - half;
  if (local < 0.0 || local >= half) return Light::kRed;
  if (local < t_.green) return Light::kGreen;
  if (local < t_.green + t_.yellow) return Light::kYellow;
  return Light::kRed;
}

double SignalController::time_to_green(Arm arm, double time) const {
  if (state(arm, time) == Light::kGreen) return 0.0;
  const double cycle = cycle_length();
  // Scan forward at fine resolution — cheap and robust for a fixed cycle.
  for (double dt = 0.1; dt <= cycle + 0.1; dt += 0.1) {
    if (state(arm, time + dt) == Light::kGreen) return dt;
  }
  return cycle;
}

RoadNetwork::RoadNetwork(RoadConfig cfg) : cfg_(cfg) {
  ERPD_REQUIRE(cfg_.lanes_per_direction >= 1,
               "RoadNetwork: need at least one lane, got ",
               cfg_.lanes_per_direction);
  ERPD_REQUIRE(cfg_.lane_width > 0.0, "RoadNetwork: lane_width must be > 0, got ",
               cfg_.lane_width);
  const double road_half = cfg_.lanes_per_direction * cfg_.lane_width;
  box_half_ = road_half + 0.5;
  stop_line_dist_ = box_half_ + cfg_.stopline_setback;
  ERPD_REQUIRE(cfg_.arm_length > stop_line_dist_ + 1.0,
               "RoadNetwork: arm_length too short: ", cfg_.arm_length,
               " <= ", stop_line_dist_ + 1.0);
  build_routes();
  build_crosswalks();
}

geom::Aabb RoadNetwork::intersection_box() const {
  return {{-box_half_, -box_half_}, {box_half_, box_half_}};
}

bool RoadNetwork::in_intersection(Vec2 p) const {
  return intersection_box().contains(p);
}

geom::Polyline RoadNetwork::build_path(Arm entry, int lane, Maneuver m) const {
  const Vec2 u = arm_direction(entry);
  const Vec2 d = -u;  // direction of travel toward the intersection
  const double w = cfg_.lane_width;
  const double off_in = (lane + 0.5) * w;
  const Vec2 r_in = right_of(d);

  const Arm exit = exit_arm(entry, m);
  const Vec2 u_out = arm_direction(exit);
  const Vec2 r_out = right_of(u_out);
  int exit_lane = lane;
  if (m == Maneuver::kLeft) exit_lane = 0;
  if (m == Maneuver::kRight) exit_lane = cfg_.lanes_per_direction - 1;
  const double off_out = (exit_lane + 0.5) * w;

  const Vec2 far_in = u * cfg_.arm_length + r_in * off_in;
  const Vec2 near_in = u * stop_line_dist_ + r_in * off_in;
  const Vec2 near_out = u_out * stop_line_dist_ + r_out * off_out;
  const Vec2 far_out = u_out * cfg_.arm_length + r_out * off_out;

  std::vector<Vec2> pts;
  // Approach, densified so arc-length queries near the stop line are smooth.
  const double approach_len = (near_in - far_in).norm();
  const int approach_steps =
      std::max(2, static_cast<int>(approach_len / (4.0 * cfg_.curve_step)));
  for (int i = 0; i <= approach_steps; ++i) {
    pts.push_back(geom::lerp(far_in, near_in,
                             static_cast<double>(i) / approach_steps));
  }

  if (m == Maneuver::kStraight) {
    pts.push_back(near_out);
  } else {
    // Quadratic Bezier: control point at the intersection of the entry and
    // exit tangent lines.
    const double denom = d.cross(u_out);
    Vec2 ctrl = (near_in + near_out) * 0.5;
    if (std::abs(denom) > 1e-9) {
      const double t = (near_out - near_in).cross(u_out) / denom;
      ctrl = near_in + d * t;
    }
    const double approx_len =
        (ctrl - near_in).norm() + (near_out - ctrl).norm();
    const int steps =
        std::max(4, static_cast<int>(approx_len / cfg_.curve_step));
    for (int i = 1; i <= steps; ++i) {
      const double t = static_cast<double>(i) / steps;
      const Vec2 p = near_in * ((1 - t) * (1 - t)) + ctrl * (2 * t * (1 - t)) +
                     near_out * (t * t);
      pts.push_back(p);
    }
  }

  pts.push_back(far_out);
  return Polyline{std::move(pts)};
}

void RoadNetwork::build_routes() {
  routes_.clear();
  for (int a = 0; a < kArmCount; ++a) {
    const Arm arm = static_cast<Arm>(a);
    for (int lane = 0; lane < cfg_.lanes_per_direction; ++lane) {
      std::vector<Maneuver> allowed;
      const int last = cfg_.lanes_per_direction - 1;
      if (cfg_.lanes_per_direction == 1) {
        allowed = {Maneuver::kLeft, Maneuver::kStraight, Maneuver::kRight};
      } else if (lane == 0) {
        allowed = {Maneuver::kLeft, Maneuver::kStraight};
      } else if (lane == last) {
        allowed = {Maneuver::kStraight, Maneuver::kRight};
      } else {
        allowed = {Maneuver::kStraight};
      }
      for (Maneuver m : allowed) {
        Route r;
        r.id = static_cast<int>(routes_.size());
        r.entry_arm = arm;
        r.entry_lane = lane;
        r.maneuver = m;
        r.exit_arm = exit_arm(arm, m);
        r.path = build_path(arm, lane, m);
        r.stop_line_s = cfg_.arm_length - stop_line_dist_;
        // Locate where the path crosses the intersection box.
        const double len = r.path.length();
        double entry_s = r.stop_line_s;
        double exit_s = len;
        bool inside = false;
        for (double s = 0.0; s <= len; s += 0.5) {
          const bool in = in_intersection(r.path.point_at(s));
          if (in && !inside) {
            entry_s = s;
            inside = true;
          } else if (!in && inside) {
            exit_s = s;
            break;
          }
        }
        r.box_entry_s = entry_s;
        r.box_exit_s = exit_s;
        routes_.push_back(std::move(r));
      }
    }
  }
}

void RoadNetwork::build_crosswalks() {
  crosswalks_.clear();
  const double road_half = cfg_.lanes_per_direction * cfg_.lane_width;
  const double cw_dist = box_half_ + cfg_.crosswalk_offset;
  for (int a = 0; a < kArmCount; ++a) {
    const Arm arm = static_cast<Arm>(a);
    const Vec2 u = arm_direction(arm);
    const Vec2 perp = u.perp();
    const Vec2 center = u * cw_dist;
    const Vec2 e0 = center - perp * (road_half + 2.0);
    const Vec2 e1 = center + perp * (road_half + 2.0);
    Crosswalk cw;
    cw.arm = arm;
    cw.path = Polyline{{e0, e1}};
    crosswalks_.push_back(std::move(cw));
  }
}

std::optional<int> RoadNetwork::find_route(Arm entry, int lane,
                                           Maneuver m) const {
  for (const Route& r : routes_) {
    if (r.entry_arm == entry && r.entry_lane == lane && r.maneuver == m) {
      return r.id;
    }
  }
  return std::nullopt;
}

const Crosswalk& RoadNetwork::crosswalk(Arm arm) const {
  for (const Crosswalk& cw : crosswalks_) {
    if (cw.arm == arm) return cw;
  }
  ERPD_UNREACHABLE("crosswalk: no crosswalk built for arm ",
                   static_cast<int>(arm));
}

}  // namespace erpd::sim
