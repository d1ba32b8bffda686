#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "geom/angle.hpp"
#include "map_match_oracle.hpp"
#include "track/prediction.hpp"

// Property suite for map matching (track/prediction.hpp): on 10k seeded
// queries, match_route, predict and predict_hypotheses (scanning, or reading
// fit_routes' fits as the rules hand them over) must equal the per-caller
// scans in map_match_oracle.hpp bit for bit: the chosen route's id, s and
// lateral, and every hypothesis's path points, speed and horizon. The
// queries cover every route, the ±0.25 m rank band where turn paths leave
// the shared approach, exact lateral ties between lanes, headings on the
// heading gate, speed exactly 0.5 m/s, pedestrians, stationary objects and
// positions off the map.

namespace erpd::track {
namespace {

using geom::Vec2;

constexpr int kQueries = 10000;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_trajectory(const PredictedTrajectory& a,
                     const PredictedTrajectory& b) {
  const auto& pa = a.path.points();
  const auto& pb = b.path.points();
  return same_bits(a.speed, b.speed) && same_bits(a.horizon, b.horizon) &&
         pa.size() == pb.size() &&
         (pa.empty() ||
          std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(Vec2)) == 0);
}

bool same_set(const std::vector<PredictedTrajectory>& a,
              const std::vector<PredictedTrajectory>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_trajectory(a[i], b[i])) return false;
  }
  return true;
}

struct Query {
  Vec2 position{};
  Vec2 velocity{};
  /// Heading the route match is asked at (the velocity's when it moves).
  double heading{0.0};
  sim::AgentKind kind{sim::AgentKind::kCar};
  std::size_t cfg{0};
};

/// Default gates, plus tighter, looser and coarser ones.
std::vector<PredictorConfig> configs() {
  std::vector<PredictorConfig> out(4);
  out[1].horizon = 2.0;
  out[1].step = 0.5;
  out[2].horizon = 8.0;
  out[2].max_lateral = 1.0;
  out[2].max_heading_diff_deg = 30.0;
  out[3].max_lateral = 2.5;
  out[3].max_heading_diff_deg = 60.0;
  out[3].step = 2.0;
  return out;
}

Query random_query(const sim::RoadNetwork& net,
                   const std::vector<PredictorConfig>& cfgs,
                   std::uint64_t seed) {
  std::mt19937_64 rng = core::seeded_rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * u01(rng);
  };
  const auto& routes = net.routes();
  Query q;
  q.cfg = static_cast<std::size_t>(seed % cfgs.size());
  const PredictorConfig& cfg = cfgs[q.cfg];
  const sim::Route& route = routes[(seed / cfgs.size()) % routes.size()];
  const double len = route.path.length();

  const double r = u01(rng);
  if (r < 0.35) {
    // Anywhere along a route (a little past either end), off its centerline
    // by up to past the lateral gate.
    const double s = uniform(-3.0, len + 3.0);
    const double off = u01(rng) < 0.2
                           ? (u01(rng) < 0.5 ? -1.0 : 1.0) * cfg.max_lateral
                           : uniform(-cfg.max_lateral - 1.0,
                                     cfg.max_lateral + 1.0);
    q.position = route.path.point_at(s) + route.path.tangent_at(s).perp() * off;
    q.heading = route.path.heading_at(s) + uniform(-0.4, 0.4);
  } else if (r < 0.55) {
    // Where turn paths leave the shared approach: lateral errors of sibling
    // routes cross the ±0.25 m rank band here.
    const double s = route.box_entry_s + uniform(-6.0, 12.0);
    q.position = route.path.point_at(s) +
                 route.path.tangent_at(s).perp() * uniform(-0.8, 0.8);
    q.heading = route.path.heading_at(s) + uniform(-0.1, 0.1);
  } else if (r < 0.7) {
    // On the heading gate: exactly at it, or an ulp-scale step either side.
    const double s = uniform(0.0, len);
    q.position = route.path.point_at(s);
    const double gate = geom::deg_to_rad(cfg.max_heading_diff_deg);
    const double nudge = u01(rng) < 0.5 ? 0.0 : uniform(-1e-12, 1e-12);
    q.heading = route.path.heading_at(s) +
                (u01(rng) < 0.5 ? -1.0 : 1.0) * (gate + nudge);
  } else if (r < 0.85) {
    // Off the map: far beyond every arm.
    q.position = {uniform(150.0, 400.0) * (u01(rng) < 0.5 ? -1.0 : 1.0),
                  uniform(150.0, 400.0) * (u01(rng) < 0.5 ? -1.0 : 1.0)};
    q.heading = uniform(-geom::kPi, geom::kPi);
  } else if (r < 0.9) {
    // Midway between this route and a same-maneuver route from the next
    // lane: equal lateral errors, so the first fit in network order wins.
    const double s = uniform(0.0, route.stop_line_s);
    q.position = route.path.point_at(s);
    for (const sim::Route& other : routes) {
      if (other.maneuver == route.maneuver &&
          other.entry_arm == route.entry_arm &&
          other.entry_lane != route.entry_lane) {
        q.position = (q.position + other.path.point_at(s)) * 0.5;
        break;
      }
    }
    q.heading = route.path.heading_at(s);
  } else {
    // Anywhere around the intersection, any heading.
    q.position = {uniform(-60.0, 60.0), uniform(-60.0, 60.0)};
    q.heading = uniform(-geom::kPi, geom::kPi);
  }

  const double k = u01(rng);
  if (k < 0.15) {
    q.kind = sim::AgentKind::kPedestrian;
  } else if (k < 0.25) {
    q.kind = sim::AgentKind::kTruck;
  }

  const double v = u01(rng);
  if (v < 0.08) {
    q.velocity = {0.0, 0.0};  // stationary
  } else if (v < 0.16) {
    // Exactly 0.5 m/s: along the axis nearest the heading, so the norm is
    // exact and the speed gate's strict > decides.
    const double quarter = std::round(q.heading / (geom::kPi / 2.0));
    const int axis = static_cast<int>(quarter) & 3;
    q.velocity = axis == 0   ? Vec2{0.5, 0.0}
                 : axis == 1 ? Vec2{0.0, 0.5}
                 : axis == 2 ? Vec2{-0.5, 0.0}
                             : Vec2{0.0, -0.5};
  } else if (v < 0.22) {
    q.velocity = Vec2::from_heading(q.heading) * uniform(1e-5, 0.6);
  } else {
    q.velocity = Vec2::from_heading(q.heading) * uniform(0.6, 16.0);
  }
  if (q.velocity.x != 0.0 || q.velocity.y != 0.0) {
    q.heading = q.velocity.heading();
  }
  return q;
}

TEST(MapMatchOracle, SeededQueriesMatchThePerCallerScansBitForBit) {
  const sim::RoadNetwork net{sim::RoadConfig{}};
  const std::vector<PredictorConfig> cfgs = configs();
  std::vector<TrajectoryPredictor> predictors;
  for (const PredictorConfig& c : cfgs) predictors.emplace_back(net, c);
  const std::uint64_t routes = net.routes().size();

  std::vector<int> matched_route(routes, 0);
  int mismatches = 0;
  std::string first_mismatch;
  int rank_band = 0;
  int lateral_ties = 0;
  int gate_edge = 0;
  int exact_half_speed = 0;
  int pedestrians = 0;
  int stationary = 0;
  int unmatched_movers = 0;
  const auto fail = [&](int i, const char* what) {
    if (mismatches++ == 0) {
      first_mismatch = "query " + std::to_string(i) + ": " + what;
    }
  };

  for (int i = 0; i < kQueries; ++i) {
    const Query q =
        random_query(net, cfgs, 0xC0FFEE00ULL + static_cast<std::uint64_t>(i));
    const PredictorConfig& cfg = cfgs[q.cfg];
    const TrajectoryPredictor& predictor = predictors[q.cfg];

    // The route match.
    const auto ref = oracle::match_route(net, q.position, q.heading, cfg);
    const auto got = match_route(net, q.position, q.heading, cfg);
    if (ref.has_value() != got.has_value() ||
        (ref && (ref->route_id != got->route_id ||
                 !same_bits(ref->s, got->s) ||
                 !same_bits(ref->lateral, got->lateral)))) {
      fail(i, "match_route");
    }

    // Hypotheses: scanned here, and from the fits the rules would hand over.
    const auto ref_hyps = oracle::predict_hypotheses(net, cfg, q.position,
                                                     q.velocity, q.kind);
    std::uint64_t scanned = 0;
    const auto hyps = predictor.predict_hypotheses(
        q.position, q.velocity, q.kind, nullptr, &scanned);
    const std::vector<RouteMatch> fits =
        fit_routes(net, q.position, q.velocity.heading(), cfg);
    std::uint64_t reread = 0;
    const auto from_fits = predictor.predict_hypotheses(
        q.position, q.velocity, q.kind, &fits, &reread);
    if (!same_set(ref_hyps, hyps)) fail(i, "predict_hypotheses (scan)");
    if (!same_set(ref_hyps, from_fits)) fail(i, "predict_hypotheses (fits)");
    const bool moving_vehicle = q.kind != sim::AgentKind::kPedestrian &&
                                q.velocity.norm() > 0.5;
    if (scanned != (moving_vehicle ? routes : 0) || reread != 0) {
      fail(i, "route projection count");
    }

    // The single best hypothesis.
    if (!same_trajectory(
            oracle::predict(net, cfg, q.position, q.velocity, q.kind),
            predictor.predict(q.position, q.velocity, q.kind))) {
      fail(i, "predict");
    }

    // Coverage.
    if (ref) ++matched_route[static_cast<std::size_t>(ref->route_id)];
    const auto at_heading = fit_routes(net, q.position, q.heading, cfg);
    for (const RouteMatch& a : at_heading) {
      for (const RouteMatch& b : at_heading) {
        if (a.maneuver != b.maneuver && a.lateral < b.lateral &&
            b.lateral - a.lateral < 0.25) {
          ++rank_band;
        }
        if (a.route_id < b.route_id && a.maneuver == b.maneuver &&
            a.lateral == b.lateral) {
          ++lateral_ties;
        }
      }
    }
    PredictorConfig loose = cfg;
    loose.max_heading_diff_deg += 1e-6;
    if (fit_routes(net, q.position, q.heading, loose).size() !=
        at_heading.size()) {
      ++gate_edge;
    }
    if (q.velocity.norm() == 0.5) ++exact_half_speed;
    if (q.kind == sim::AgentKind::kPedestrian) ++pedestrians;
    if (q.velocity.norm() == 0.0) ++stationary;
    if (moving_vehicle && ref_hyps.size() == 1 && fits.empty()) {
      ++unmatched_movers;
    }
  }

  EXPECT_EQ(mismatches, 0) << first_mismatch;
  for (std::size_t id = 0; id < matched_route.size(); ++id) {
    EXPECT_GT(matched_route[id], 0) << "route " << id << " never matched";
  }
  EXPECT_GE(rank_band, 100);
  EXPECT_GE(lateral_ties, 20);
  EXPECT_GE(gate_edge, 100);
  EXPECT_GE(exact_half_speed, 100);
  EXPECT_GE(pedestrians, 500);
  EXPECT_GE(stationary, 300);
  EXPECT_GE(unmatched_movers, 500);
}

}  // namespace
}  // namespace erpd::track
