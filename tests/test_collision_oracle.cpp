// Property suites for the collision estimate (paper §III-A.1), 10k seeded
// cases each:
//
//   - PassingInterval / EstimateCollision against a dense time-sampled
//     oracle: walk each trajectory at its constant speed in steps of
//     horizon / kSamples and read the passing intervals, R_ci, R_ttc and
//     `collides` off the samples. The oracle shares no interval code with
//     src/; only Polyline::point_at (arc-length position) and
//     Polyline::slice (the reach clip, part of the definition) are reused.
//   - RelevancePruning: the AABB-rejecting best_collision over hypothesis
//     sets equals, bit for bit, an all-pairs loop over the unpruned
//     reference estimate below, on inputs rich in touching, collinear and
//     zero-speed paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "core/relevance.hpp"

namespace erpd::core {
namespace {

using geom::Polyline;
using geom::Vec2;
using track::PredictedTrajectory;

constexpr int kCases = 10000;
/// Time samples per horizon. The sampling step dt = horizon / kSamples
/// bounds every tolerance below: a sampled boundary is off by < dt.
constexpr int kSamples = 4000;
constexpr double kTol = 1e-9;

struct Gen {
  std::mt19937_64 rng;
  double uni(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  }
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); }
};

Polyline walk(Vec2 start, double heading, double length, double step,
              double curvature) {
  std::vector<Vec2> pts{start};
  Vec2 p = start;
  for (double s = 0.0; s < length;) {
    const double seg = std::min(step, length - s);
    heading += curvature * seg;
    p = p + Vec2::from_heading(heading) * seg;
    pts.push_back(p);
    s += seg;
  }
  return Polyline{std::move(pts)};
}

/// A random trajectory passing near `near`: zero, crawling or driving
/// speed; 1 m resampled or long-segment paths; straight or curved; paths
/// longer or shorter than the horizon reach.
PredictedTrajectory random_traj(Gen& g, Vec2 near) {
  PredictedTrajectory t;
  const int speed_kind = g.pick(10);
  t.speed = speed_kind == 0 ? 0.0 : speed_kind == 1 ? 5e-4 : g.uni(0.3, 15.0);
  t.horizon = g.pick(4) == 0 ? g.uni(1.0, 6.0) : 5.0;
  const double reach = std::max(t.reach(), 0.5);
  const double length =
      g.pick(5) == 0 ? reach * g.uni(0.2, 1.0) : reach + g.uni(0.0, 10.0);
  const double step = g.pick(4) == 0 ? g.uni(3.0, 30.0) : 1.0;
  const double curvature = g.pick(2) == 0 ? 0.0 : g.uni(-0.1, 0.1);
  const double heading = g.uni(-M_PI, M_PI);
  const Vec2 dir = Vec2::from_heading(heading);
  const Vec2 start = near - dir * (g.uni(0.0, 1.0) * reach) +
                     dir.perp() * g.uni(-3.0, 3.0);
  t.path = walk(start, heading, length, step, curvature);
  return t;
}

// ---------------------------------------------------------------------------
// Dense time-sampled oracle.

/// A trajectory sampled at t_k = k * dt, k = 0..kSamples. The object moves
/// at `speed` along the path and is gone once it runs off the path's end.
struct Sampled {
  double dt{0.0};
  std::vector<Vec2> pos;  // samples while on the path
};

Sampled sample(const PredictedTrajectory& t) {
  Sampled out;
  out.dt = t.horizon / kSamples;
  for (int k = 0; k <= kSamples; ++k) {
    const double s = t.speed * k * out.dt;
    if (s > t.path.length()) break;
    out.pos.push_back(t.path.point_at(s));
  }
  return out;
}

/// First run of consecutive samples inside the closed disk, as sample
/// indices [first, last], or nullopt.
struct Run {
  int first{0};
  int last{0};
};
std::optional<Run> first_run(const Sampled& smp, Vec2 center, double r) {
  std::optional<Run> run;
  for (int k = 0; k < static_cast<int>(smp.pos.size()); ++k) {
    const bool in = distance(smp.pos[k], center) <= r;
    if (in && !run) run = Run{k, k};
    if (in && run) run->last = k;
    if (!in && run) break;
  }
  return run;
}

/// Checks passing_interval on one (trajectory, disk) against the samples.
/// Returns false (and records why) on a disagreement that sampling at dt
/// cannot explain.
::testing::AssertionResult interval_agrees(const PredictedTrajectory& t,
                                           Vec2 c, double r) {
  const auto exact = passing_interval(t, c, r);
  if (t.speed < 1e-3) {
    // Stationary by definition: inside for the whole horizon or never,
    // judged at the start point. The oracle object crawls at most
    // speed * horizon, so only judge starts clearly inside or outside.
    const double d0 = distance(t.path.point_at(0.0), c);
    const double crawl = t.speed * t.horizon + kTol;
    if (d0 <= r - crawl) {
      if (!exact || exact->lo != 0.0 || exact->hi != t.horizon) {
        return ::testing::AssertionFailure() << "stationary inside, no [0, T]";
      }
    } else if (d0 > r + crawl && exact) {
      return ::testing::AssertionFailure() << "stationary outside, interval";
    }
    return ::testing::AssertionSuccess();
  }
  const Sampled smp = sample(t);
  const double dt = smp.dt;
  const auto run = first_run(smp, c, r);
  if (!run) {
    // Only a graze between two samples may go unseen.
    if (exact && exact->hi - exact->lo > dt + kTol) {
      return ::testing::AssertionFailure()
             << "oracle sees nothing, exact [" << exact->lo << ", "
             << exact->hi << "] longer than dt " << dt;
    }
    return ::testing::AssertionSuccess();
  }
  if (!exact) {
    return ::testing::AssertionFailure()
           << "oracle inside at t=" << run->first * dt << ", exact none";
  }
  const double t_in = run->first * dt;
  const double t_out = run->last * dt;
  // A graze shorter than dt before the sampled run may be the exact first
  // interval; it must then hold at most one sample.
  if (exact->hi < t_in - dt) {
    if (exact->hi - exact->lo > dt + kTol) {
      return ::testing::AssertionFailure()
             << "exact first interval [" << exact->lo << ", " << exact->hi
             << "] missed by the oracle, whose run starts at " << t_in;
    }
    return ::testing::AssertionSuccess();
  }
  if (exact->lo > t_in + kTol || exact->lo < t_in - dt - kTol) {
    return ::testing::AssertionFailure()
           << "entry " << exact->lo << " vs sampled " << t_in << " (dt "
           << dt << ")";
  }
  if (exact->hi < t_out - dt - kTol) {
    // The exact interval ends inside the sampled run, so the path must have
    // left and re-entered between two samples: just past the exit it is
    // outside the disk, and the next sample is inside again.
    const Vec2 after = t.path.point_at(t.speed * (exact->hi + 1e-7));
    if (distance(after, c) > r - kTol) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "exit " << exact->hi << " inside the sampled run ending at "
           << t_out << ", but the path is still inside after it";
  }
  if (exact->hi > t_out + dt + kTol) {
    return ::testing::AssertionFailure()
           << "exit " << exact->hi << " vs sampled " << t_out << " (dt "
           << dt << ")";
  }
  return ::testing::AssertionSuccess();
}

TEST(PassingInterval, MatchesDenseTimeSampling) {
  Gen g{std::mt19937_64{0xc011'0001}};
  int entered = 0;
  for (int i = 0; i < kCases; ++i) {
    const Vec2 near{g.uni(-40.0, 40.0), g.uni(-40.0, 40.0)};
    const PredictedTrajectory t = random_traj(g, near);
    const Vec2 c = near + Vec2{g.uni(-4.0, 4.0), g.uni(-4.0, 4.0)};
    const double r = g.uni(0.5, 8.0);
    ASSERT_TRUE(interval_agrees(t, c, r)) << "case " << i;
    entered += passing_interval(t, c, r).has_value() ? 1 : 0;
  }
  // The generator aims paths at the disks: both outcomes are common.
  EXPECT_GT(entered, kCases / 5);
  EXPECT_LT(entered, kCases * 4 / 5);
}

/// Passing interval of sampled run as times [t_in, t_out], or nullopt.
/// Stationary objects (the estimate's definition) sit at their start.
std::optional<geom::IntervalD> sampled_interval(const PredictedTrajectory& t,
                                                Vec2 c, double r) {
  if (t.speed < 1e-3) {
    if (distance(t.path.point_at(0.0), c) <= r) {
      return geom::IntervalD{0.0, t.horizon};
    }
    return std::nullopt;
  }
  const Sampled smp = sample(t);
  const auto run = first_run(smp, c, r);
  if (!run) return std::nullopt;
  return geom::IntervalD{run->first * smp.dt, run->last * smp.dt};
}

/// Textbook first crossing of two polylines: every segment pair by the
/// plain parametric solve (no tolerances), keeping the smallest arc length
/// along `a`. Parallel pairs are skipped: random paths cross transversally.
std::optional<double> first_crossing_s(const Polyline& a, const Polyline& b) {
  std::optional<double> best;
  const auto& pa = a.points();
  const auto& pb = b.points();
  double sa = 0.0;
  for (std::size_t i = 0; i + 1 < pa.size(); ++i) {
    const Vec2 r = pa[i + 1] - pa[i];
    for (std::size_t j = 0; j + 1 < pb.size(); ++j) {
      const Vec2 s = pb[j + 1] - pb[j];
      const double den = r.cross(s);
      if (den == 0.0) continue;
      const Vec2 qp = pb[j] - pa[i];
      const double u = qp.cross(r) / den;
      const double tt = qp.cross(s) / den;
      if (tt < 0.0 || tt > 1.0 || u < 0.0 || u > 1.0) continue;
      const double s_here = sa + tt * r.norm();
      if (!best || s_here < *best) best = s_here;
    }
    sa += r.norm();
  }
  return best;
}

TEST(EstimateCollision, MatchesDenseTimeSampling) {
  Gen g{std::mt19937_64{0xc011'0002}};
  int crossings = 0;
  int collisions = 0;
  for (int i = 0; i < kCases; ++i) {
    const Vec2 near{g.uni(-40.0, 40.0), g.uni(-40.0, 40.0)};
    const PredictedTrajectory a = random_traj(g, near);
    const PredictedTrajectory b = random_traj(g, near);
    const double la = g.uni(0.5, 8.0);
    const double lb = g.uni(0.5, 8.0);
    const auto est = estimate_collision(a, b, la, lb);

    // Crossing: the textbook solve over the reach-clipped paths agrees on
    // whether there is one and where along `a` it lies.
    const Polyline ca = a.path.slice(0.0, std::max(a.reach(), 0.5));
    const Polyline cb = b.path.slice(0.0, std::max(b.reach(), 0.5));
    const auto s_cross = first_crossing_s(ca, cb);
    ASSERT_EQ(est.has_value(), s_cross.has_value()) << "case " << i;
    if (!est) continue;
    ++crossings;
    ASSERT_LE(distance(est->collision_point, ca.point_at(*s_cross)), 1e-6)
        << "case " << i;
    ASSERT_EQ(est->radius, std::max(la, lb));

    // Passing intervals through the collision area, sampled.
    const double dt = std::max(a.horizon, b.horizon) / kSamples;
    const double horizon = std::min(a.horizon, b.horizon);
    const auto t1 = sampled_interval(a, est->collision_point, est->radius);
    const auto t2 = sampled_interval(b, est->collision_point, est->radius);
    std::optional<geom::IntervalD> overlap;
    double gap = 0.0;  // sampled distance between disjoint intervals
    if (t1 && t2) {
      overlap = geom::interval_overlap(*t1, *t2);
      gap = std::max(t1->lo, t2->lo) - std::min(t1->hi, t2->hi);
    }
    // Grazes and near-touching intervals are below the sampling
    // resolution: within 2 dt of flipping, `collides` may go either way.
    if (est->collides != overlap.has_value()) {
      const bool graze = (t1 && t2) ? std::abs(gap) <= 2.0 * dt + kTol
                                    : est->collision_interval <= dt + kTol;
      ASSERT_TRUE(graze) << "case " << i << ": collides " << est->collides
                         << ", sampled gap " << gap;
      continue;
    }
    if (!est->collides) {
      EXPECT_EQ(est->r_ci, 0.0);
      EXPECT_EQ(est->r_ttc, 0.0);
      EXPECT_EQ(est->ttc, horizon);
      continue;
    }
    ++collisions;
    // Each sampled endpoint is within dt of the exact one.
    const double inter = overlap->length();
    const double uni = geom::interval_union_length(*t1, *t2);
    ASSERT_NEAR(est->collision_interval, inter, 2.0 * dt + kTol) << i;
    ASSERT_NEAR(est->ttc, overlap->lo, dt + kTol) << "case " << i;
    ASSERT_NEAR(est->r_ttc, std::clamp(1.0 - overlap->lo / horizon, 0.0, 1.0),
                dt / horizon + kTol)
        << "case " << i;
    if (uni > 20.0 * dt) {
      ASSERT_NEAR(est->r_ci, inter / uni, 4.0 * dt / uni + kTol)
          << "case " << i;
    }
    ASSERT_DOUBLE_EQ(est->relevance, 0.5 * (est->r_ci + est->r_ttc));
  }
  EXPECT_GT(crossings, kCases / 5);
  EXPECT_GT(collisions, kCases / 20);
}

// ---------------------------------------------------------------------------
// Exactness of the AABB reject.

/// The collision estimate as it was before clipping moved out of the
/// per-pair kernel: slice both paths to their reach, search every segment
/// pair, no bounding-box reject.
std::optional<CollisionEstimate> reference_estimate(
    const PredictedTrajectory& a, const PredictedTrajectory& b,
    double length_a, double length_b) {
  const Polyline pa = a.path.slice(0.0, std::max(a.reach(), 0.5));
  const Polyline pb = b.path.slice(0.0, std::max(b.reach(), 0.5));
  if (pa.empty() || pb.empty()) return std::nullopt;
  const auto crossing = pa.first_crossing(pb);
  if (!crossing) return std::nullopt;

  CollisionEstimate est;
  est.collision_point = crossing->point;
  est.radius = std::max(length_a, length_b);
  const double horizon = std::min(a.horizon, b.horizon);
  const auto t1 = passing_interval(a, est.collision_point, est.radius);
  const auto t2 = passing_interval(b, est.collision_point, est.radius);
  if (!t1 || !t2) {
    est.ttc = horizon;
    return est;
  }
  const auto overlap = geom::interval_overlap(*t1, *t2);
  if (!overlap) {
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

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

::testing::AssertionResult bit_equal(const std::optional<CollisionEstimate>& x,
                                     const std::optional<CollisionEstimate>& y) {
  if (x.has_value() != y.has_value()) {
    return ::testing::AssertionFailure()
           << "presence " << x.has_value() << " vs " << y.has_value();
  }
  if (!x) return ::testing::AssertionSuccess();
  const bool eq = x->collides == y->collides &&
                  same_bits(x->collision_interval, y->collision_interval) &&
                  same_bits(x->ttc, y->ttc) && same_bits(x->r_ci, y->r_ci) &&
                  same_bits(x->r_ttc, y->r_ttc) &&
                  same_bits(x->relevance, y->relevance) &&
                  same_bits(x->collision_point.x, y->collision_point.x) &&
                  same_bits(x->collision_point.y, y->collision_point.y) &&
                  same_bits(x->radius, y->radius);
  if (eq) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "relevance " << x->relevance << " vs " << y->relevance
         << ", point (" << x->collision_point.x << ", " << x->collision_point.y
         << ") vs (" << y->collision_point.x << ", " << y->collision_point.y
         << ")";
}

PredictedTrajectory on_path(std::vector<Vec2> pts, double speed,
                            double horizon = 5.0) {
  PredictedTrajectory t;
  t.path = Polyline{std::move(pts)};
  t.speed = speed;
  t.horizon = horizon;
  return t;
}

/// Hypothesis pairs built to sit on the reject's boundary: collinear runs
/// with gaps from 0 to beyond the slack, paths touching end to end or end
/// to side, boxes meeting at a corner, and zero-speed objects.
std::pair<PredictedTrajectory, PredictedTrajectory> boundary_pair(Gen& g) {
  static constexpr double kGaps[] = {0.0,  1e-13, 1e-12, 1e-9, 1e-7,
                                     1e-6, 1e-5,  1e-4,  1e-3, 3.9e-3,
                                     4.1e-3, 0.01, 0.5};
  const double gap = kGaps[g.pick(13)] * (g.pick(2) == 0 ? 1.0 : -1.0);
  const double heading = g.pick(3) == 0 ? 0.5 * M_PI * g.pick(4)
                                        : g.uni(-M_PI, M_PI);
  const Vec2 dir = Vec2::from_heading(heading);
  const Vec2 p0{g.uni(-60.0, 60.0), g.uni(-60.0, 60.0)};
  const double speed_a = g.pick(5) == 0 ? 0.0 : g.uni(0.5, 15.0);
  const double speed_b = g.pick(5) == 0 ? 0.0 : g.uni(0.5, 15.0);
  const double len_a = std::max(speed_a * 5.0, 0.5);
  const double step = g.pick(2) == 0 ? 1.0 : len_a;  // 1 m or one segment
  const auto straight = [&](Vec2 from, Vec2 d, double len) {
    std::vector<Vec2> pts{from};
    for (double s = step; s < len; s += step) pts.push_back(from + d * s);
    pts.push_back(from + d * len);
    return pts;
  };
  const Vec2 a_end = p0 + dir * len_a;
  switch (g.pick(4)) {
    case 0: {  // collinear, end to end (same or opposite direction)
      const Vec2 b0 = a_end + dir * gap + dir.perp() * kGaps[g.pick(6)];
      // Onward from b0, or back towards it from 20 m further on.
      const bool onward = g.pick(2) == 0;
      return {on_path(straight(p0, dir, len_a), speed_a),
              onward ? on_path(straight(b0, dir, 20.0), speed_b)
                     : on_path(straight(b0 + dir * 20.0, dir * -1.0, 20.0),
                               speed_b)};
    }
    case 1: {  // B starts at (or just off) A's end, any heading
      const Vec2 bd = Vec2::from_heading(g.uni(-M_PI, M_PI));
      return {on_path(straight(p0, dir, len_a), speed_a),
              on_path(straight(a_end + bd * gap, bd, 15.0), speed_b)};
    }
    case 2: {  // B ends on A's side (T-junction), across it
      const Vec2 foot = p0 + dir * (len_a * g.uni(0.0, 1.0));
      const Vec2 bd = dir.perp();
      const double len_b = std::max(speed_b * 5.0, 0.5);
      const Vec2 b0 = foot - bd * (len_b + gap);
      return {on_path(straight(p0, dir, len_a), speed_a),
              on_path(straight(b0, bd, len_b), speed_b)};
    }
    default: {  // axis-aligned boxes meeting at a corner
      const Vec2 b0 = a_end + Vec2{gap, gap};
      return {on_path(straight(p0, Vec2{1.0, 0.0}, len_a), speed_a),
              on_path(straight(b0, Vec2{0.0, 1.0}, 12.0), speed_b)};
    }
  }
}

TEST(RelevancePruning, PrunedBestEqualsAllPairsReferenceBitForBit) {
  Gen g{std::mt19937_64{0xc011'0003}};
  RelevanceTally tally;
  std::uint64_t hypothesis_pairs = 0;
  int found = 0;
  for (int i = 0; i < kCases; ++i) {
    std::vector<PredictedTrajectory> a;
    std::vector<PredictedTrajectory> b;
    if (g.pick(2) == 0) {
      auto [x, y] = boundary_pair(g);
      a.push_back(std::move(x));
      b.push_back(std::move(y));
    }
    const Vec2 near{g.uni(-40.0, 40.0), g.uni(-40.0, 40.0)};
    for (int k = g.pick(3); k < 3; ++k) a.push_back(random_traj(g, near));
    for (int k = g.pick(3); k < 3; ++k) b.push_back(random_traj(g, near));
    const double la = g.uni(0.5, 8.0);
    const double lb = g.uni(0.5, 8.0);

    std::optional<CollisionEstimate> want;
    for (const PredictedTrajectory& ta : a) {
      for (const PredictedTrajectory& tb : b) {
        const auto est = reference_estimate(ta, tb, la, lb);
        // The two-trajectory overload is the reference too, pair by pair.
        ASSERT_TRUE(bit_equal(estimate_collision(ta, tb, la, lb), est))
            << "case " << i;
        if (est && (!want || est->relevance > want->relevance)) want = est;
      }
    }
    std::vector<ClippedTrajectory> ca;
    std::vector<ClippedTrajectory> cb;
    for (const PredictedTrajectory& t : a) ca.push_back(clip_to_reach(t));
    for (const PredictedTrajectory& t : b) cb.push_back(clip_to_reach(t));
    ASSERT_TRUE(bit_equal(best_collision(ca, cb, la, lb, tally), want))
        << "case " << i;
    hypothesis_pairs += a.size() * b.size();
    found += want.has_value() ? 1 : 0;
  }
  EXPECT_EQ(tally.pairs, static_cast<std::uint64_t>(kCases));
  // The reject prunes a real share of the hypothesis pairs, and the
  // estimates it leaves still find crossings.
  EXPECT_LT(tally.estimates, hypothesis_pairs * 3 / 4);
  EXPECT_GT(tally.hits, 0u);
  EXPECT_LE(tally.hits, tally.estimates);
  EXPECT_GT(found, kCases / 10);
}

// 1 m segments at 1e-12..1e-10 rad to each other, end to end with gaps of
// 2e-5..1e-3 m and lines crossing inside the gap. In exact arithmetic they
// never cross, but with |r x s| barely above 1e-12 intersect's general
// branch rounds t and u far enough to accept some of them. kClipBoxSlack
// must keep every such pair (DESIGN.md §19).
TEST(RelevancePruning, NearlyCollinearUnitSegmentsMatchReference) {
  Gen g{std::mt19937_64{0xc011'0004}};
  RelevanceTally tally;
  int rounding_hits = 0;
  for (int i = 0; i < kCases; ++i) {
    const double heading = g.uni(-M_PI, M_PI);
    const double angle = std::pow(10.0, g.uni(-12.0, -10.0)) *
                         (g.pick(2) == 0 ? 1.0 : -1.0);
    const double gap = std::pow(10.0, g.uni(std::log10(2e-5), -3.0));
    const Vec2 dir = Vec2::from_heading(heading);
    const Vec2 a0{g.uni(-1.0, 1.0), g.uni(-1.0, 1.0)};
    const Vec2 mid = a0 + dir * (1.0 + 0.5 * gap);
    const Vec2 bd = Vec2::from_heading(heading + angle);
    const Vec2 b0 = mid + bd * (0.5 * gap);
    // B runs onward from the gap or back towards it.
    const bool onward = g.pick(2) == 0;
    const auto ta = on_path({a0, a0 + dir}, 1.0);
    const auto tb = onward ? on_path({b0, b0 + bd}, 1.0)
                           : on_path({b0 + bd, b0}, 1.0);
    const double la = g.uni(0.5, 8.0);
    const double lb = g.uni(0.5, 8.0);
    const auto want = reference_estimate(ta, tb, la, lb);
    ASSERT_TRUE(bit_equal(estimate_collision(ta, tb, la, lb), want))
        << "case " << i << ", angle " << angle << ", gap " << gap;
    ASSERT_TRUE(bit_equal(best_collision({clip_to_reach(ta)},
                                         {clip_to_reach(tb)}, la, lb, tally),
                          want))
        << "case " << i << ", angle " << angle << ", gap " << gap;
    rounding_hits += want.has_value() ? 1 : 0;
  }
  // The cases do reach the rounding: some are accepted across the gap.
  EXPECT_GE(rounding_hits, 10);
}

}  // namespace
}  // namespace erpd::core
