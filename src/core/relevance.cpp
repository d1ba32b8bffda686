#include "core/relevance.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"

namespace erpd::core {

std::optional<geom::IntervalD> passing_interval(
    const track::PredictedTrajectory& traj, geom::Vec2 center, double radius) {
  const double horizon = traj.horizon;
  if (traj.speed < 1e-3) {
    // (Nearly) stationary object: inside the area for the whole horizon or
    // never.
    const geom::Vec2 pos = traj.path.point_at(0.0);
    if (distance(pos, center) <= radius) return geom::IntervalD{0.0, horizon};
    return std::nullopt;
  }
  const auto arcs = traj.path.circle_intervals(center, radius);
  // Use the first entry interval (the crossing the caller derived the center
  // from); later re-entries are beyond this interaction.
  for (const geom::IntervalD& arc : arcs) {
    // circle_intervals yields arc-length intervals with 0 <= lo <= hi, so
    // the time interval is already ordered before clipping and stays ordered
    // after (lo is only raised to 0, hi only lowered to the horizon).
    geom::IntervalD t{arc.lo / traj.speed, arc.hi / traj.speed};
    if (t.lo >= horizon) continue;  // entirely beyond the horizon
    t.hi = std::min(t.hi, horizon);
    t.lo = std::max(t.lo, 0.0);
    ERPD_DCHECK(t.lo <= t.hi,
                "passing_interval: clipped interval inverted [", t.lo, ", ",
                t.hi, "]");
    // A degenerate interval (t.lo == t.hi, e.g. a trajectory grazing the
    // collision-area boundary) is intentionally returned as-is: a grazing
    // contact is still a contact, so estimate_collision may report
    // collides=true with collision_interval 0 (and ttc 0 when the graze is
    // at the start of the horizon).
    return t;
  }
  return std::nullopt;
}

ClippedTrajectory clip_to_reach(track::PredictedTrajectory traj) {
  ClippedTrajectory out;
  // Limit the path to its horizon reach before intersecting.
  out.path = traj.path.slice(0.0, std::max(traj.reach(), 0.5));
  for (const geom::Vec2& p : out.path.points()) out.box.expand(p);
  out.box = out.box.inflated(kClipBoxSlack);
  out.traj = std::move(traj);
  return out;
}

std::optional<CollisionEstimate> estimate_collision(
    const track::PredictedTrajectory& a, const track::PredictedTrajectory& b,
    double length_a, double length_b) {
  return estimate_collision(clip_to_reach(a), clip_to_reach(b), length_a,
                            length_b);
}

namespace {

/// The exact estimate of pre-clipped trajectories, without the box test.
std::optional<CollisionEstimate> crossing_estimate(const ClippedTrajectory& a,
                                                   const ClippedTrajectory& b,
                                                   double length_a,
                                                   double length_b) {
  if (a.path.empty() || b.path.empty()) return std::nullopt;

  const auto crossing = a.path.first_crossing(b.path);
  if (!crossing) return std::nullopt;

  CollisionEstimate est;
  est.collision_point = crossing->point;
  est.radius = std::max(length_a, length_b);
  const double horizon = std::min(a.traj.horizon, b.traj.horizon);

  const auto t1 = passing_interval(a.traj, est.collision_point, est.radius);
  const auto t2 = passing_interval(b.traj, est.collision_point, est.radius);
  if (!t1 || !t2) {
    // One object never reaches the area within the horizon.
    est.ttc = horizon;
    return est;
  }

  const auto overlap = geom::interval_overlap(*t1, *t2);
  if (!overlap) {
    // Trajectories cross but passing times are disjoint (the paper's G vs p
    // example): both R_ci and R_ttc are 0.
    est.ttc = horizon;
    return est;
  }

  est.collides = true;
  est.collision_interval = overlap->length();
  const double union_len = geom::interval_union_length(*t1, *t2);
  est.r_ci = union_len > 0.0 ? est.collision_interval / union_len : 1.0;
  est.ttc = overlap->lo;
  est.r_ttc = std::clamp(1.0 - est.ttc / horizon, 0.0, 1.0);
  est.relevance = 0.5 * (est.r_ci + est.r_ttc);
  return est;
}

}  // namespace

std::optional<CollisionEstimate> estimate_collision(
    const ClippedTrajectory& a, const ClippedTrajectory& b, double length_a,
    double length_b) {
  if (!may_cross(a, b)) return std::nullopt;
  return crossing_estimate(a, b, length_a, length_b);
}

std::optional<CollisionEstimate> best_collision(
    const std::vector<ClippedTrajectory>& a,
    const std::vector<ClippedTrajectory>& b, double length_a, double length_b,
    RelevanceTally& tally) {
  ++tally.pairs;
  std::optional<CollisionEstimate> best;
  for (const ClippedTrajectory& ta : a) {
    for (const ClippedTrajectory& tb : b) {
      if (!may_cross(ta, tb)) continue;
      ++tally.estimates;
      const auto est = crossing_estimate(ta, tb, length_a, length_b);
      if (!est) continue;
      ++tally.hits;
      if (!best || est->relevance > best->relevance) best = est;
    }
  }
  return best;
}

bool follower_unsafe(double gap, double follower_speed,
                     const FollowerRelevanceConfig& cfg) {
  const bool pipes_ok = kFollowerPipes.compliant(gap, follower_speed);
  const bool gipps_ok = kFollowerGipps.compliant(gap, follower_speed);
  switch (cfg.criterion) {
    case FollowerCriterion::kViolatesAny: return !pipes_ok || !gipps_ok;
    case FollowerCriterion::kViolatesBoth: return !pipes_ok && !gipps_ok;
  }
  return false;
}

double follower_relevance(double leader_relevance, double gap,
                          double follower_speed,
                          const FollowerRelevanceConfig& cfg) {
  if (!follower_unsafe(gap, follower_speed, cfg)) return 0.0;
  return cfg.alpha * leader_relevance;
}

}  // namespace erpd::core
