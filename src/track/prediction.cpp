#include "track/prediction.hpp"

#include <cmath>

#include "core/check.hpp"
#include "geom/angle.hpp"

namespace erpd::track {

using geom::Vec2;

std::optional<RouteMatch> match_route(const sim::RoadNetwork& net,
                                      Vec2 position, double heading,
                                      const PredictorConfig& cfg) {
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
  for (const sim::Route& route : net.routes()) {
    double lateral = 0.0;
    const double s = route.path.project(position, &lateral);
    if (lateral > cfg.max_lateral) continue;
    const double path_heading = route.path.heading_at(s);
    if (geom::angle_dist(path_heading, heading) >
        geom::deg_to_rad(cfg.max_heading_diff_deg)) {
      continue;
    }
    const int rank = maneuver_rank(route.maneuver);
    const bool better =
        !best || lateral < best->lateral - 0.25 ||
        (lateral < best->lateral + 0.25 && rank < best_rank);
    if (better) {
      best = RouteMatch{route.id, s, lateral};
      best_rank = rank;
    }
  }
  return best;
}

TrajectoryPredictor::TrajectoryPredictor(const sim::RoadNetwork& net,
                                         PredictorConfig cfg)
    : net_(net), cfg_(cfg) {}

std::vector<PredictedTrajectory> TrajectoryPredictor::predict_hypotheses(
    Vec2 position, Vec2 velocity, sim::AgentKind kind) const {
  std::vector<PredictedTrajectory> out;
  const double speed = velocity.norm();
  const double heading = velocity.heading();
  const double reach = std::max(speed * cfg_.horizon, 0.5);

  if (kind != sim::AgentKind::kPedestrian && speed > 0.5) {
    // One hypothesis per matching maneuver (best lateral fit each).
    struct Best {
      int route_id{-1};
      double s{0.0};
      double lateral{1e9};
    };
    Best per_maneuver[3];
    for (const sim::Route& route : net_.routes()) {
      double lateral = 0.0;
      const double s = route.path.project(position, &lateral);
      if (lateral > cfg_.max_lateral) continue;
      if (geom::angle_dist(route.path.heading_at(s), heading) >
          geom::deg_to_rad(cfg_.max_heading_diff_deg)) {
        continue;
      }
      const int mi = static_cast<int>(route.maneuver);
      ERPD_DCHECK(mi >= 0 && mi < 3,
                  "prediction: maneuver index ", mi, " out of range for route ",
                  route.id);
      Best& slot = per_maneuver[mi];
      if (lateral < slot.lateral) slot = {route.id, s, lateral};
    }
    for (const Best& b : per_maneuver) {
      if (b.route_id < 0) continue;
      PredictedTrajectory t;
      t.speed = speed;
      t.horizon = cfg_.horizon;
      geom::Polyline slice =
          net_.route(b.route_id).path.slice(b.s, b.s + reach);
      std::vector<Vec2> pts;
      pts.push_back(position);
      for (const Vec2& p : slice.points()) pts.push_back(p);
      t.path = geom::Polyline{std::move(pts)}.resampled(cfg_.step);
      out.push_back(std::move(t));
    }
  }
  if (out.empty()) {
    out.push_back(predict(position, velocity, kind));
  }
  return out;
}

PredictedTrajectory TrajectoryPredictor::predict(Vec2 position, Vec2 velocity,
                                                 sim::AgentKind kind,
                                                 double yaw_rate) const {
  PredictedTrajectory out;
  out.speed = velocity.norm();
  out.horizon = cfg_.horizon;

  const double reach = std::max(out.speed * cfg_.horizon, 0.5);
  const double heading = velocity.heading();

  if (kind != sim::AgentKind::kPedestrian && out.speed > 0.5) {
    if (const auto snap = match_route(net_, position, heading, cfg_)) {
      const geom::Polyline& route_path = net_.route(snap->route_id).path;
      geom::Polyline slice = route_path.slice(snap->s, snap->s + reach);
      // Stitch the actual current position to the lane centerline so the
      // trajectory starts where the object really is.
      std::vector<Vec2> pts;
      pts.push_back(position);
      for (const Vec2& p : slice.points()) pts.push_back(p);
      out.path = geom::Polyline{std::move(pts)}.resampled(cfg_.step);
      return out;
    }
    // Off the map and turning: constant turn-rate-and-velocity arc.
    if (std::abs(yaw_rate) > geom::deg_to_rad(4.0)) {
      std::vector<Vec2> pts;
      Vec2 p = position;
      double h = heading;
      const double dt = cfg_.step / std::max(out.speed, 0.5);
      pts.push_back(p);
      for (double s = 0.0; s < reach; s += cfg_.step) {
        h += yaw_rate * dt;
        p += Vec2::from_heading(h) * cfg_.step;
        pts.push_back(p);
      }
      out.path = geom::Polyline{std::move(pts)};
      return out;
    }
  }

  // Constant-velocity fallback (pedestrians, unmatched vehicles).
  const Vec2 dir = out.speed > 1e-3 ? velocity.normalized()
                                    : Vec2::from_heading(heading);
  out.path = geom::Polyline{{position, position + dir * reach}};
  return out;
}

}  // namespace erpd::track
