#include "map_match_oracle.hpp"

#include <algorithm>

#include "geom/angle.hpp"

namespace erpd::track::oracle {

using geom::Vec2;

std::optional<Match> match_route(const sim::RoadNetwork& net, Vec2 position,
                                 double heading, const PredictorConfig& cfg) {
  const auto maneuver_rank = [](sim::Maneuver m) {
    switch (m) {
      case sim::Maneuver::kStraight: return 0;
      case sim::Maneuver::kLeft: return 1;
      case sim::Maneuver::kRight: return 2;
    }
    return 3;
  };
  std::optional<Match> best;
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
      best = Match{route.id, s, lateral};
      best_rank = rank;
    }
  }
  return best;
}

PredictedTrajectory predict(const sim::RoadNetwork& net,
                            const PredictorConfig& cfg, Vec2 position,
                            Vec2 velocity, sim::AgentKind kind) {
  PredictedTrajectory out;
  out.speed = velocity.norm();
  out.horizon = cfg.horizon;

  const double reach = std::max(out.speed * cfg.horizon, 0.5);
  const double heading = velocity.heading();

  if (kind != sim::AgentKind::kPedestrian && out.speed > 0.5) {
    if (const auto snap = oracle::match_route(net, position, heading, cfg)) {
      const geom::Polyline& route_path = net.route(snap->route_id).path;
      geom::Polyline slice = route_path.slice(snap->s, snap->s + reach);
      std::vector<Vec2> pts;
      pts.push_back(position);
      for (const Vec2& p : slice.points()) pts.push_back(p);
      out.path = geom::Polyline{std::move(pts)}.resampled(cfg.step);
      return out;
    }
  }

  const Vec2 dir = out.speed > 1e-3 ? velocity.normalized()
                                    : Vec2::from_heading(heading);
  out.path = geom::Polyline{{position, position + dir * reach}};
  return out;
}

std::vector<PredictedTrajectory> predict_hypotheses(
    const sim::RoadNetwork& net, const PredictorConfig& cfg, Vec2 position,
    Vec2 velocity, sim::AgentKind kind) {
  std::vector<PredictedTrajectory> out;
  const double speed = velocity.norm();
  const double heading = velocity.heading();
  const double reach = std::max(speed * cfg.horizon, 0.5);

  if (kind != sim::AgentKind::kPedestrian && speed > 0.5) {
    struct Best {
      int route_id{-1};
      double s{0.0};
      double lateral{1e9};
    };
    Best per_maneuver[3];
    for (const sim::Route& route : net.routes()) {
      double lateral = 0.0;
      const double s = route.path.project(position, &lateral);
      if (lateral > cfg.max_lateral) continue;
      if (geom::angle_dist(route.path.heading_at(s), heading) >
          geom::deg_to_rad(cfg.max_heading_diff_deg)) {
        continue;
      }
      Best& slot = per_maneuver[static_cast<int>(route.maneuver)];
      if (lateral < slot.lateral) slot = {route.id, s, lateral};
    }
    for (const Best& b : per_maneuver) {
      if (b.route_id < 0) continue;
      PredictedTrajectory t;
      t.speed = speed;
      t.horizon = cfg.horizon;
      geom::Polyline slice =
          net.route(b.route_id).path.slice(b.s, b.s + reach);
      std::vector<Vec2> pts;
      pts.push_back(position);
      for (const Vec2& p : slice.points()) pts.push_back(p);
      t.path = geom::Polyline{std::move(pts)}.resampled(cfg.step);
      out.push_back(std::move(t));
    }
  }
  if (out.empty()) {
    out.push_back(oracle::predict(net, cfg, position, velocity, kind));
  }
  return out;
}

}  // namespace erpd::track::oracle
