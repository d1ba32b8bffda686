#include "lidar_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "core/rng.hpp"
#include "geom/angle.hpp"

namespace erpd::sim {

using geom::Vec2;
using geom::Vec3;

LidarScan oracle_scan(const LidarConfig& cfg, const geom::Pose& pose,
                      std::span<const LidarTarget> targets,
                      std::mt19937_64& rng) {
  const Vec2 eye = pose.position.xy();
  const double sensor_z = pose.position.z;
  const int n_az = cfg.azimuth_count();
  const double az_step = geom::kTwoPi / n_az;
  const bool noisy = cfg.noise_sigma > 0.0;
  const std::uint64_t noise_base = noisy ? rng() : 0;

  // Channel elevations, evenly spread over the vertical field of view.
  std::vector<double> elevations;
  const double lo = geom::deg_to_rad(cfg.vertical_fov_min_deg);
  const double hi = geom::deg_to_rad(cfg.vertical_fov_max_deg);
  for (int c = 0; c < cfg.channels; ++c) {
    const double t =
        cfg.channels == 1 ? 0.5 : static_cast<double>(c) / (cfg.channels - 1);
    elevations.push_back(lo + t * (hi - lo));
  }

  // Candidates: targets whose nearest possible point is within range, each
  // with the azimuth interval its circumcircle subtends from the eye.
  struct Candidate {
    const LidarTarget* target;
    double span_center;
    double span_half_width;
  };
  std::vector<Candidate> candidates;
  for (const LidarTarget& t : targets) {
    const geom::Obb& box = t.footprint;
    const Vec2 d = box.center() - eye;
    const double dist = d.norm();
    if (dist - box.max_extent() > cfg.max_range) continue;
    const double radius = 0.5 * std::hypot(box.length(), box.width());
    const double half_width =
        dist <= radius ? geom::kPi
                       : std::asin(std::min(1.0, radius / dist)) + 1e-3;
    candidates.push_back({&t, d.heading(), half_width});
  }

  struct Hit {
    double dist;
    std::size_t cand;
  };

  LidarScan out;
  std::vector<Vec3> world_points;
  for (std::size_t ia = 0; ia < static_cast<std::size_t>(n_az); ++ia) {
    const double az_world = -geom::kPi + static_cast<double>(ia) * az_step;
    const Vec2 dir = Vec2::from_heading(az_world);
    const geom::Segment ray{eye, eye + dir * cfg.max_range};
    core::SplitMix64 az_rng(core::seed_mix(noise_base, ia));
    // std::normal_distribution requires a positive stddev, so the
    // distribution exists only on the noisy path.
    std::optional<std::normal_distribution<double>> noise;
    if (noisy) noise.emplace(0.0, cfg.noise_sigma);

    // Every candidate this ray strikes, nearest first; equal ranges go to
    // the earlier-listed candidate.
    std::vector<Hit> hits;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      const Candidate& c = candidates[j];
      const double off = geom::angle_dist(az_world, c.span_center);
      if (!(off <= c.span_half_width)) continue;
      const double t = c.target->footprint.ray_hit(ray);
      if (t >= 0.0) hits.push_back({t * cfg.max_range, j});
    }
    std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.cand < b.cand;
    });

    for (const double elev : elevations) {
      const double tan_e = std::tan(elev);
      // The first prism whose vertical extent the beam passes through.
      const Hit* struck = nullptr;
      for (const Hit& h : hits) {
        const LidarTarget& tg = *candidates[h.cand].target;
        const double z = sensor_z + h.dist * tan_e;
        if (z >= tg.base_z && z <= tg.base_z + tg.height) {
          struck = &h;
          break;
        }
      }
      if (struck != nullptr) {
        const LidarTarget& tg = *candidates[struck->cand].target;
        const double d = struck->dist + (noisy ? (*noise)(az_rng) : 0.0);
        world_points.push_back(
            Vec3{eye + dir * d, sensor_z + struck->dist * tan_e});
        if (tg.id >= 0) {
          ++out.points_per_agent[tg.id];
        } else {
          ++out.static_points;
        }
        continue;
      }
      // Nothing in the way: a downward beam returns from the ground.
      if (tan_e < 0.0) {
        const double ground_d = -sensor_z / tan_e;
        if (ground_d <= cfg.max_range) {
          const double d = ground_d + (noisy ? (*noise)(az_rng) : 0.0);
          world_points.push_back(Vec3{eye + dir * d, 0.0});
          ++out.ground_points;
        }
      }
    }
  }

  const geom::Mat4 t_wl = geom::Mat4::from_pose(pose).rigid_inverse();
  for (const Vec3& p : world_points) {
    out.cloud.push_back(t_wl.transform_point(p));
  }
  return out;
}

bool oracle_line_of_sight(Vec2 eye, Vec2 target_point,
                          std::span<const geom::Obb> occluders) {
  const geom::Segment seg{eye, target_point};
  for (const geom::Obb& box : occluders) {
    const double t = box.ray_hit(seg);
    if (t >= 0.0 && t < 1.0) return false;
  }
  return true;
}

}  // namespace erpd::sim
