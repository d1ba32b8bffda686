#pragma once
// Road network: a signalized 4-way intersection with multi-lane arms,
// crosswalks and turn routes.
//
// This is the HD-map substrate the paper assumes at the edge server
// (refs [29], [30]): it exposes lane geometry (for Rule 1 leader election),
// the crosswalk boundary (Rule 2) and crosswalk polylines for pedestrians.
//
// Geometry convention: intersection center at the origin; arms extend along
// the compass axes (N = +y, E = +x, S = -y, W = -x); right-hand traffic.

#include <optional>
#include <vector>

#include "core/check.hpp"
#include "geom/aabb.hpp"
#include "geom/polyline.hpp"
#include "geom/vec2.hpp"
#include "sim/types.hpp"

namespace erpd::sim {

struct RoadConfig {
  double lane_width{3.5};
  int lanes_per_direction{2};
  double arm_length{120.0};
  /// Extra clearance between the intersection box edge and the stop line.
  double stopline_setback{4.0};
  /// Crosswalk center distance beyond the intersection box edge.
  double crosswalk_offset{1.8};
  /// Sampling step for turn curves (meters).
  double curve_step{1.0};
};

/// An approach lane: (arm, lane index). Lane 0 is the innermost (leftmost)
/// lane; lane lanes_per_direction-1 is the outermost (rightmost).
struct LaneRef {
  Arm arm{Arm::kNorth};
  int lane{0};
  bool operator==(const LaneRef&) const = default;
};

/// A complete path through the intersection.
struct Route {
  int id{0};
  Arm entry_arm{Arm::kNorth};
  int entry_lane{0};
  Maneuver maneuver{Maneuver::kStraight};
  Arm exit_arm{Arm::kSouth};
  geom::Polyline path;
  /// Arc length of the stop line along `path`.
  double stop_line_s{0.0};
  /// Arc length where the path enters / exits the intersection box.
  double box_entry_s{0.0};
  double box_exit_s{0.0};

  LaneRef entry_lane_ref() const { return {entry_arm, entry_lane}; }
};

struct Crosswalk {
  Arm arm{Arm::kNorth};
  /// Walking path across the road (sidewalk to sidewalk).
  geom::Polyline path;
};

/// Fixed-cycle two-phase signal: north-south green, then east-west green,
/// with yellow and all-red intervals.
class SignalController {
 public:
  struct Timing {
    double green{20.0};
    double yellow{3.0};
    double all_red{2.0};
  };

  enum class Light : std::uint8_t { kGreen, kYellow, kRed };

  SignalController() = default;
  explicit SignalController(Timing t) : t_(t) {}

  double cycle_length() const {
    return 2.0 * (t_.green + t_.yellow + t_.all_red);
  }

  Light state(Arm arm, double time) const;

  /// Seconds until `arm` next turns green (0 if already green).
  double time_to_green(Arm arm, double time) const;

 private:
  Timing t_{};
};

class RoadNetwork {
 public:
  explicit RoadNetwork(RoadConfig cfg = {});

  const RoadConfig& config() const { return cfg_; }

  /// Half-extent of the square intersection box (Rule 2 red boundary).
  double box_half() const { return box_half_; }
  geom::Aabb intersection_box() const;
  bool in_intersection(geom::Vec2 p) const;

  const std::vector<Route>& routes() const { return routes_; }
  const Route& route(int id) const {
    ERPD_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < routes_.size(),
                 "RoadNetwork::route: id ", id, " out of range [0, ",
                 routes_.size(), ")");
    return routes_[static_cast<std::size_t>(id)];
  }

  /// The route for (arm, lane, maneuver), if the lane permits that maneuver.
  std::optional<int> find_route(Arm entry, int lane, Maneuver m) const;

  const std::vector<Crosswalk>& crosswalks() const { return crosswalks_; }
  const Crosswalk& crosswalk(Arm arm) const;

  /// Outward unit direction of an arm.
  static geom::Vec2 arm_direction(Arm a);
  static Arm opposite(Arm a);
  /// Exit arm for a maneuver entered from `entry`.
  static Arm exit_arm(Arm entry, Maneuver m);

 private:
  RoadConfig cfg_;
  double box_half_{0.0};
  double stop_line_dist_{0.0};
  std::vector<Route> routes_;
  std::vector<Crosswalk> crosswalks_;

  void build_routes();
  void build_crosswalks();
  geom::Polyline build_path(Arm entry, int lane, Maneuver m) const;
};

}  // namespace erpd::sim
