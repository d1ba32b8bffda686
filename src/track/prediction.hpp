#pragma once
// Trajectory prediction (paper's Trajectory Prediction module).
//
// Tracked objects get a mean predicted path over horizon T — the output the
// interval relevance method (§III-A.1) consumes — provided by a real-time
// model: vehicles matched to an HD-map route follow the route geometry
// (capturing turns, the paper's lane-intent idea); everything else is
// constant-velocity.

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/polyline.hpp"
#include "sim/road_network.hpp"

namespace erpd::track {

struct PredictedTrajectory {
  /// Path from the object's current position forward.
  geom::Polyline path;
  /// Assumed constant speed along the path (m/s).
  double speed{0.0};
  /// Maximum forecast time T (s).
  double horizon{5.0};

  geom::Vec2 position_at(double t) const {
    return path.point_at(speed * t);
  }
  /// Arc length covered within the horizon.
  double reach() const { return speed * horizon; }
};

/// One route that passes the lane-snap gates at a position: the result of
/// snapping a tracked vehicle onto an HD-map route.
struct RouteMatch {
  int route_id{-1};
  sim::Maneuver maneuver{sim::Maneuver::kStraight};
  /// Arc length of the projection on the route path.
  double s{0.0};
  double lateral{0.0};
};

struct PredictorConfig {
  /// Forecast horizon T (the paper's maximum prediction time).
  double horizon{5.0};
  /// Lane-snap gates.
  double max_lateral{1.7};
  double max_heading_diff_deg{40.0};
  /// Path sampling step (meters).
  double step{1.0};
};

/// The one route scan of map matching: every route whose path lies within
/// `gates.max_lateral` of `position` and heads within
/// `gates.max_heading_diff_deg` of `heading` there, in network order. Each
/// route costs one path projection; `*route_projections` (if given) grows by
/// their number.
std::vector<RouteMatch> fit_routes(const sim::RoadNetwork& net,
                                   geom::Vec2 position, double heading,
                                   const PredictorConfig& gates,
                                   std::uint64_t* route_projections = nullptr);

/// The single best of a scan's fits: the smallest lateral error, with
/// near-ties (within 0.25 m) going to the straight route.
std::optional<RouteMatch> match_route(const std::vector<RouteMatch>& fits);

/// Snap a position/heading to the best-matching route of the network, if any.
inline std::optional<RouteMatch> match_route(const sim::RoadNetwork& net,
                                             geom::Vec2 position,
                                             double heading,
                                             const PredictorConfig& cfg = {}) {
  return match_route(fit_routes(net, position, heading, cfg));
}

class TrajectoryPredictor {
 public:
  TrajectoryPredictor(const sim::RoadNetwork& net, PredictorConfig cfg = {});

  /// Predict from an explicit kinematic state (single best hypothesis).
  PredictedTrajectory predict(geom::Vec2 position, geom::Vec2 velocity,
                              sim::AgentKind kind) const;

  /// All plausible trajectory hypotheses. On a shared approach segment the
  /// lane intent (straight vs turn) is unknowable, so one trajectory per
  /// matching maneuver is returned; collision risk should be evaluated as
  /// the maximum over hypotheses (standard practice in probabilistic risk
  /// assessment, refs [32]-[34]). Falls back to the constant-velocity line
  /// when no route matches.
  ///
  /// `fits`, when given, are the object's route fits at (position, velocity
  /// heading) under this predictor's gates, e.g. the rules' snap; otherwise
  /// a moving vehicle is scanned here, adding to `*route_projections`.
  std::vector<PredictedTrajectory> predict_hypotheses(
      geom::Vec2 position, geom::Vec2 velocity, sim::AgentKind kind,
      const std::vector<RouteMatch>* fits = nullptr,
      std::uint64_t* route_projections = nullptr) const;

 private:
  const sim::RoadNetwork& net_;
  PredictorConfig cfg_;
};

}  // namespace erpd::track
