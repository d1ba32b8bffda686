#pragma once
// Trajectory prediction (paper's Trajectory Prediction module).
//
// Tracked objects get a mean predicted path over horizon T — the output the
// interval relevance method (§III-A.1) consumes — provided by a real-time
// model: vehicles matched to an HD-map route follow the route geometry
// (capturing turns, the paper's lane-intent idea); everything else is
// constant-velocity.

#include <optional>
#include <vector>

#include "geom/polyline.hpp"
#include "sim/road_network.hpp"
#include "track/tracker.hpp"

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

/// Result of snapping a tracked vehicle onto an HD-map route.
struct RouteMatch {
  int route_id{-1};
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

/// Snap a position/heading to the best-matching route of the network, if any.
std::optional<RouteMatch> match_route(const sim::RoadNetwork& net,
                                      geom::Vec2 position, double heading,
                                      const PredictorConfig& cfg = {});

class TrajectoryPredictor {
 public:
  TrajectoryPredictor(const sim::RoadNetwork& net, PredictorConfig cfg = {});

  const PredictorConfig& config() const { return cfg_; }

  /// Predict from an explicit kinematic state (single best hypothesis).
  /// `yaw_rate` (rad/s) activates a constant-turn-rate (CTRV) arc when the
  /// object matches no map route — e.g. a vehicle swinging through a parking
  /// lot or an unusual mid-intersection maneuver.
  PredictedTrajectory predict(geom::Vec2 position, geom::Vec2 velocity,
                              sim::AgentKind kind, double yaw_rate = 0.0) const;

  /// Predict for a track (uses the track's smoothed yaw-rate estimate).
  PredictedTrajectory predict(const Track& track) const {
    return predict(track.position(), track.velocity(), track.kind,
                   track.yaw_rate);
  }

  /// All plausible trajectory hypotheses. On a shared approach segment the
  /// lane intent (straight vs turn) is unknowable, so one trajectory per
  /// matching maneuver is returned; collision risk should be evaluated as
  /// the maximum over hypotheses (standard practice in probabilistic risk
  /// assessment, refs [32]-[34]). Falls back to the single constant-velocity
  /// prediction when no route matches.
  std::vector<PredictedTrajectory> predict_hypotheses(
      geom::Vec2 position, geom::Vec2 velocity, sim::AgentKind kind) const;

  std::vector<PredictedTrajectory> predict_hypotheses(
      const Track& track) const {
    return predict_hypotheses(track.position(), track.velocity(), track.kind);
  }

 private:
  const sim::RoadNetwork& net_;
  PredictorConfig cfg_;
};

}  // namespace erpd::track
