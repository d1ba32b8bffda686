#include "track/rules.hpp"

#include <algorithm>

namespace erpd::track {

RuleEngine::RuleEngine(const sim::RoadNetwork& net, PredictorConfig matcher)
    : net_(net), matcher_(matcher) {}

RepresentativeSet RuleEngine::select(
    const std::vector<const Track*>& tracks) const {
  RepresentativeSet out;

  // --- Vehicles: lane queues (Rule 1) and boundary vehicles (Rule 2) ------
  const geom::Aabb boundary =
      net_.intersection_box().inflated(kBoundaryMargin);

  struct QueueEntry {
    int track_id;
    double s;
  };
  std::map<std::pair<int, int>, std::vector<QueueEntry>>
      queues;  // keyed by the entry lane's (arm, lane)

  std::vector<const Track*> pedestrians;
  for (const Track* tr : tracks) {
    if (tr->kind == sim::AgentKind::kPedestrian) {
      pedestrians.push_back(tr);
      continue;
    }
    const geom::Vec2 pos = tr->position();
    const double speed = tr->velocity().norm();

    // Rule 2: moving vehicles inside the red boundary are always predicted.
    if (boundary.contains(pos)) {
      if (speed >= kMinMovingSpeed) {
        out.boundary_vehicles.push_back(tr->id);
        out.predicted_tracks.push_back(tr->id);
      }
      continue;
    }

    // Approach vehicles: snap to a route and join the entry-lane queue if
    // they are still before the stop line (i.e. approaching).
    std::vector<RouteMatch> fits =
        fit_routes(net_, pos, tr->velocity().heading(), matcher_,
                   &out.route_projections);
    const auto snap = match_route(fits);
    out.route_fits.emplace(tr->id, std::move(fits));
    if (!snap) continue;
    const sim::Route& route = net_.route(snap->route_id);
    if (snap->s > route.stop_line_s + 1.0) continue;  // already past / exiting
    const sim::LaneRef lane = route.entry_lane_ref();
    queues[{static_cast<int>(lane.arm), lane.lane}].push_back(
        {tr->id, snap->s});
  }

  for (auto& [key, entries] : queues) {
    std::sort(entries.begin(), entries.end(),
              [](const QueueEntry& a, const QueueEntry& b) {
                return a.s > b.s;  // larger arc length = closer to stop line
              });
    LaneQueue queue;
    for (const QueueEntry& e : entries) {
      queue.track_ids.push_back(e.track_id);
      queue.arc_lengths.push_back(e.s);
    }
    // Rule 1: only the lane leader gets a predicted trajectory.
    out.lane_leaders.push_back(queue.track_ids.front());
    out.predicted_tracks.push_back(queue.track_ids.front());
    out.lane_queues.push_back(std::move(queue));
  }

  // --- Pedestrians: crowd clustering (Rule 3) -----------------------------
  if (!pedestrians.empty()) {
    std::vector<CrowdEntity> entities;
    entities.reserve(pedestrians.size());
    for (const Track* tr : pedestrians) {
      CrowdEntity e;
      e.position = tr->position();
      e.heading = tr->velocity().heading();
      e.speed = std::max(tr->velocity().norm(), 0.1);
      entities.push_back(e);
    }
    const CrowdClusterResult cc = cluster_crowd(entities, CrowdClusterConfig{});
    for (const CrowdCluster& cluster : cc.clusters) {
      const int rep_track = pedestrians[cluster.representative]->id;
      out.pedestrian_representatives.push_back(rep_track);
      out.predicted_tracks.push_back(rep_track);
      for (std::size_t m : cluster.members) {
        const int member_track = pedestrians[m]->id;
        if (member_track != rep_track) {
          out.pedestrian_rep_of[member_track] = rep_track;
        }
      }
    }
  }

  return out;
}

}  // namespace erpd::track
