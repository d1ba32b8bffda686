#include "track/prediction.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "geom/angle.hpp"

namespace erpd::track {

using geom::Vec2;

namespace {

/// Moving vehicles follow routes; pedestrians and near-stationary objects go
/// straight.
bool follows_routes(Vec2 velocity, sim::AgentKind kind) {
  return kind != sim::AgentKind::kPedestrian && velocity.norm() > 0.5;
}

/// The object's position stitched to the route centerline from the fit's arc
/// length on, over the horizon's reach, resampled at the step.
PredictedTrajectory along_route(const sim::RoadNetwork& net,
                                const PredictorConfig& cfg, Vec2 position,
                                double speed, const RouteMatch& fit) {
  PredictedTrajectory out;
  out.speed = speed;
  out.horizon = cfg.horizon;
  const double reach = std::max(speed * cfg.horizon, 0.5);
  const geom::Polyline slice =
      net.route(fit.route_id).path.slice(fit.s, fit.s + reach);
  std::vector<Vec2> pts;
  pts.reserve(slice.points().size() + 1);
  pts.push_back(position);
  for (const Vec2& p : slice.points()) pts.push_back(p);
  out.path = geom::Polyline{std::move(pts)}.resampled(cfg.step);
  return out;
}

/// Constant velocity: a straight line over the horizon's reach.
PredictedTrajectory straight_line(const PredictorConfig& cfg, Vec2 position,
                                  Vec2 velocity) {
  PredictedTrajectory out;
  out.speed = velocity.norm();
  out.horizon = cfg.horizon;
  const double reach = std::max(out.speed * cfg.horizon, 0.5);
  const Vec2 dir = out.speed > 1e-3 ? velocity.normalized()
                                    : Vec2::from_heading(velocity.heading());
  out.path = geom::Polyline{{position, position + dir * reach}};
  return out;
}

}  // namespace

std::vector<RouteMatch> fit_routes(const sim::RoadNetwork& net, Vec2 position,
                                   double heading, const PredictorConfig& gates,
                                   std::uint64_t* route_projections) {
  std::vector<RouteMatch> fits;
  for (const sim::Route& route : net.routes()) {
    double lateral = 0.0;
    const double s = route.path.project(position, &lateral);
    if (lateral > gates.max_lateral) continue;
    if (geom::angle_dist(route.path.heading_at(s), heading) >
        geom::deg_to_rad(gates.max_heading_diff_deg)) {
      continue;
    }
    fits.push_back({route.id, route.maneuver, s, lateral});
  }
  if (route_projections != nullptr) *route_projections += net.routes().size();
  return fits;
}

std::optional<RouteMatch> match_route(const std::vector<RouteMatch>& fits) {
  // On the shared approach segment several routes (straight/left/right from
  // the same lane) project equally well; lane intent is unknowable there, so
  // near-ties resolve toward the straight route (deterministic and the most
  // common maneuver). Once the vehicle is actually turning, the turning
  // route's smaller lateral error wins naturally.
  const auto maneuver_rank = [](sim::Maneuver m) {
    switch (m) {
      case sim::Maneuver::kStraight: return 0;
      case sim::Maneuver::kLeft: return 1;
      case sim::Maneuver::kRight: return 2;
    }
    return 3;
  };
  std::optional<RouteMatch> best;
  int best_rank = 99;
  for (const RouteMatch& fit : fits) {
    const int rank = maneuver_rank(fit.maneuver);
    const bool better =
        !best || fit.lateral < best->lateral - 0.25 ||
        (fit.lateral < best->lateral + 0.25 && rank < best_rank);
    if (better) {
      best = fit;
      best_rank = rank;
    }
  }
  return best;
}

TrajectoryPredictor::TrajectoryPredictor(const sim::RoadNetwork& net,
                                         PredictorConfig cfg)
    : net_(net), cfg_(cfg) {}

PredictedTrajectory TrajectoryPredictor::predict(Vec2 position, Vec2 velocity,
                                                 sim::AgentKind kind) const {
  if (follows_routes(velocity, kind)) {
    if (const auto snap =
            match_route(net_, position, velocity.heading(), cfg_)) {
      return along_route(net_, cfg_, position, velocity.norm(), *snap);
    }
  }
  return straight_line(cfg_, position, velocity);
}

std::vector<PredictedTrajectory> TrajectoryPredictor::predict_hypotheses(
    Vec2 position, Vec2 velocity, sim::AgentKind kind,
    const std::vector<RouteMatch>* fits,
    std::uint64_t* route_projections) const {
  std::vector<PredictedTrajectory> out;
  if (follows_routes(velocity, kind)) {
    std::vector<RouteMatch> scanned;
    if (fits == nullptr) {
      scanned = fit_routes(net_, position, velocity.heading(), cfg_,
                           route_projections);
      fits = &scanned;
    }
    // One hypothesis per matching maneuver: its best lateral fit, the first
    // in network order among equals.
    const RouteMatch* per_maneuver[3] = {};
    for (const RouteMatch& fit : *fits) {
      const auto mi = static_cast<std::size_t>(fit.maneuver);
      ERPD_DCHECK(mi < 3, "prediction: maneuver index ", mi,
                  " out of range for route ", fit.route_id);
      const RouteMatch*& slot = per_maneuver[mi];
      if (slot == nullptr || fit.lateral < slot->lateral) slot = &fit;
    }
    for (const RouteMatch* fit : per_maneuver) {
      if (fit != nullptr) {
        out.push_back(along_route(net_, cfg_, position, velocity.norm(), *fit));
      }
    }
  }
  if (out.empty()) out.push_back(straight_line(cfg_, position, velocity));
  return out;
}

}  // namespace erpd::track
