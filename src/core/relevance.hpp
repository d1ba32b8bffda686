#pragma once
// Relevance estimation (paper §III-A).
//
// Relevance of perception data quantifies the probability of a potential
// collision between the corresponding objects:
//
//   - trajectory-based (§III-A.1): at a trajectory crossing, place a circular
//     *collision area* of radius = the larger object's length; compute each
//     object's passing interval through the circle; then
//        R_ci  = |t1 ∩ t2| / |t1 ∪ t2|          (collision interval IoU)
//        ttc   = start of the overlap;  R_ttc = 1 - ttc / T  (0 if disjoint)
//        R     = (R_ci + R_ttc) / 2
//
//   - car-following-based (§III-A.2): a follower that violates the safety
//     criteria (Pipes' rule / Gipps time gap) inherits alpha x its leader's
//     relevance, because it would rear-end the leader if the leader brakes
//     after receiving a dissemination.

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/segment.hpp"
#include "geom/vec2.hpp"
#include "sim/car_following.hpp"
#include "track/prediction.hpp"

namespace erpd::core {

struct CollisionEstimate {
  /// True if the passing intervals overlap (a collision is possible).
  bool collides{false};
  /// Collision interval |t1 ∩ t2| in seconds.
  double collision_interval{0.0};
  /// Earliest possible collision time (= T when no overlap).
  double ttc{0.0};
  double r_ci{0.0};
  double r_ttc{0.0};
  /// Combined relevance in [0, 1].
  double relevance{0.0};
  /// Where the trajectories cross and the collision-area radius.
  geom::Vec2 collision_point{};
  double radius{0.0};
};

/// Passing interval (seconds, clipped to [0, horizon]) of a trajectory
/// through the disk (center, radius), or nullopt if it never enters within
/// the horizon. Only the first entry interval is considered; re-entries are
/// beyond the interaction the caller derived the center from. Degenerate
/// grazing contacts (zero-length intervals, including ones clipped to the
/// horizon boundary) are returned as-is, so downstream estimates may report
/// a collision with a zero-length collision interval.
std::optional<geom::IntervalD> passing_interval(
    const track::PredictedTrajectory& traj, geom::Vec2 center, double radius);

/// Slack (meters) on a clipped path's AABB. For segments up to 1 m long
/// (prediction resamples route paths and turn arcs at 1 m) it covers every
/// hit `geom::intersect` accepts off the segments' exact extent: t, u
/// within 1e-12 outside [0, 1], the collinear branch (within 2e-6 m), the
/// degenerate-point branch's 1e-9, and the general branch's rounding of t
/// and u when |r x s| is barely above 1e-12 (within 1.4e-3 m a segment).
/// The exception is a longer segment (the constant-velocity fallback's
/// single segment) nearly parallel to another path: rounding can accept a
/// hit across a wider gap, and the reject drops it. DESIGN.md §19 gives
/// the derivation.
inline constexpr double kClipBoxSlack = 2e-3;

/// A predicted trajectory with its path clipped to the horizon reach,
/// `path.slice(0, max(reach, 0.5))`, and that clipped path's AABB inflated
/// by kClipBoxSlack. Built once per frame per hypothesis.
struct ClippedTrajectory {
  track::PredictedTrajectory traj;
  geom::Polyline path;
  geom::Aabb box;
};
ClippedTrajectory clip_to_reach(track::PredictedTrajectory traj);

/// False when the clipped paths provably cannot cross: their AABBs are
/// disjoint, so no segment pair can pass `geom::intersect`.
inline bool may_cross(const ClippedTrajectory& a, const ClippedTrajectory& b) {
  return a.box.overlaps(b.box);
}

/// Estimate the potential collision between two predicted trajectories.
/// `length_a`/`length_b` are the objects' footprint lengths (meters); the
/// collision-area radius is their maximum. Returns nullopt when the
/// trajectories never cross within their horizons.
std::optional<CollisionEstimate> estimate_collision(
    const track::PredictedTrajectory& a, const track::PredictedTrajectory& b,
    double length_a, double length_b);

/// The same estimate from pre-clipped trajectories; returns nullopt before
/// any segment test when !may_cross(a, b).
std::optional<CollisionEstimate> estimate_collision(
    const ClippedTrajectory& a, const ClippedTrajectory& b, double length_a,
    double length_b);

/// Work done by best_collision, for the caller to book.
struct RelevanceTally {
  /// Hypothesis-set pairs scored (one per best_collision call).
  std::uint64_t pairs{0};
  /// Exact estimate_collision calls, i.e. hypothesis pairs passing may_cross.
  std::uint64_t estimates{0};
  /// Those calls that returned an estimate.
  std::uint64_t hits{0};
};

/// Max-relevance estimate over every (a, b) hypothesis pair: the first
/// strictly greater relevance wins, scanning a-major. Pairs failing
/// may_cross are skipped.
std::optional<CollisionEstimate> best_collision(
    const std::vector<ClippedTrajectory>& a,
    const std::vector<ClippedTrajectory>& b, double length_a, double length_b,
    RelevanceTally& tally);

/// How a follower is judged unsafe behind its leader.
enum class FollowerCriterion {
  /// Relevant if it violates Pipes *or* the Gipps gap (conservative).
  kViolatesAny,
  /// Relevant only if it violates both.
  kViolatesBoth,
};

/// The car-following safety models a follower is judged by.
inline constexpr sim::PipesModel kFollowerPipes{};
inline constexpr sim::GippsModel kFollowerGipps{};
static_assert(kFollowerPipes.min_gap >= 0.0 &&
              kFollowerGipps.reaction_time > 0.0);

struct FollowerRelevanceConfig {
  /// Decay factor alpha in (0, 1]; paper uses 0.8.
  double alpha{0.8};
  FollowerCriterion criterion{FollowerCriterion::kViolatesAny};
};

/// True if the follower fails the configured safety criteria and therefore
/// inherits relevance from its leader.
bool follower_unsafe(double gap, double follower_speed,
                     const FollowerRelevanceConfig& cfg);

/// R_follower = alpha * R_leader if unsafe, else 0.
double follower_relevance(double leader_relevance, double gap,
                          double follower_speed,
                          const FollowerRelevanceConfig& cfg);

}  // namespace erpd::core
