#pragma once
// Scalability rules for selecting which objects to predict (paper §II-D).
//
//   Rule 1 — per approach lane, predict only the *leading* vehicle; the
//            followers behind it are covered by car-following models.
//   Rule 2 — predict every moving vehicle inside the crosswalk (red)
//            boundary around the intersection.
//   Rule 3 — cluster pedestrians into crowds; predict only the cluster
//            representatives.
//
// The output also exposes the lane queues (the follower chains of the
// car-following relevance of §III-A.2), the pedestrian member ->
// representative map and the route fits of every vehicle the rules snapped,
// which prediction reads instead of scanning the map again.

#include <cstdint>
#include <map>
#include <vector>

#include "sim/road_network.hpp"
#include "track/crowd_cluster.hpp"
#include "track/prediction.hpp"
#include "track/tracker.hpp"

namespace erpd::track {

struct LaneQueue {
  /// Track ids ordered front (closest to the stop line) to back.
  std::vector<int> track_ids;
  /// Arc length of each vehicle along the matched route (same order).
  std::vector<double> arc_lengths;
};

struct RepresentativeSet {
  /// Track ids whose trajectories are predicted (Rules 1+2 vehicles and
  /// Rule 3 pedestrian representatives).
  std::vector<int> predicted_tracks;
  /// Rule-1 leaders only.
  std::vector<int> lane_leaders;
  /// Rule-2 in-boundary vehicles.
  std::vector<int> boundary_vehicles;
  /// Rule-3 pedestrian representatives.
  std::vector<int> pedestrian_representatives;

  /// Pedestrian member -> its cluster representative (track ids).
  std::map<int, int> pedestrian_rep_of;

  std::vector<LaneQueue> lane_queues;

  /// Route fits (fit_routes under the matcher's gates) of every vehicle
  /// track outside the red boundary, keyed by track id; empty when no route
  /// fits.
  std::map<int, std::vector<RouteMatch>> route_fits;
  /// Route-path projections those snaps made.
  std::uint64_t route_projections{0};

  bool is_predicted(int track_id) const {
    for (int id : predicted_tracks) {
      if (id == track_id) return true;
    }
    return false;
  }
};

/// Extra margin around the intersection box for the Rule-2 red boundary
/// (covers the crosswalk strip).
inline constexpr double kBoundaryMargin = 3.0;
/// Minimum speed for a boundary vehicle to count as moving (m/s).
inline constexpr double kMinMovingSpeed = 0.5;
static_assert(kBoundaryMargin >= 0.0 && kMinMovingSpeed >= 0.0);

class RuleEngine {
 public:
  /// `matcher` holds the lane-snap gates of Rule 1's route matching: the
  /// edge passes its TrajectoryPredictor's config, so prediction can read
  /// the rules' route fits as its own.
  explicit RuleEngine(const sim::RoadNetwork& net,
                      PredictorConfig matcher = {});

  RepresentativeSet select(const std::vector<const Track*>& tracks) const;

 private:
  const sim::RoadNetwork& net_;
  PredictorConfig matcher_;
};

}  // namespace erpd::track
