#pragma once
// Reference map matching and prediction for test_map_match_oracle: the
// per-caller route scans that track::fit_routes replaced. match_route and
// predict_hypotheses each walk every route with their own copy of the
// lane-snap gates, and predict_hypotheses falls back to predict, which
// scans once more before it draws the constant-velocity line. No src/ code
// calls them; they share only the road network and the polyline kernels
// with src/, so agreeing with them bit for bit is evidence, not tautology.

#include <optional>
#include <vector>

#include "sim/road_network.hpp"
#include "track/prediction.hpp"

namespace erpd::track::oracle {

struct Match {
  int route_id{-1};
  double s{0.0};
  double lateral{0.0};
};

/// Best route at (position, heading): smallest lateral error, near-ties
/// (within 0.25 m) to the lower maneuver rank (straight, left, right).
std::optional<Match> match_route(const sim::RoadNetwork& net,
                                 geom::Vec2 position, double heading,
                                 const PredictorConfig& cfg);

/// Single best hypothesis: the matched route's path, else a straight line.
PredictedTrajectory predict(const sim::RoadNetwork& net,
                            const PredictorConfig& cfg, geom::Vec2 position,
                            geom::Vec2 velocity, sim::AgentKind kind);

/// One hypothesis per gated maneuver (its smallest lateral error), else
/// predict's.
std::vector<PredictedTrajectory> predict_hypotheses(
    const sim::RoadNetwork& net, const PredictorConfig& cfg,
    geom::Vec2 position, geom::Vec2 velocity, sim::AgentKind kind);

}  // namespace erpd::track::oracle
