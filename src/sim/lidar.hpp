#pragma once
// Ray-cast LiDAR model (stands in for CARLA's 64-channel roof LiDAR).
//
// The sensor spins through a configurable set of azimuths; each azimuth is a
// 2-D ray over the scene's object footprints (vehicles, pedestrians, static
// props, buildings). The nearest hit occludes everything behind it — exactly
// the line-of-sight limitation the paper's system exists to overcome. For a
// hit at horizontal distance d, every vertical channel whose elevation puts
// the beam between the object's base and top produces a return; downward
// channels that reach the ground before any obstacle produce ground returns
// (which the vehicle-side pipeline later removes by z-threshold).
//
// Point counts scale with channels x azimuth resolution, so the bandwidth
// experiments can run the paper's ~1M-point frames or a proportionally
// scaled-down sensor with identical geometry.

#include <cstdint>
#include <random>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/det_hash.hpp"
#include "geom/mat4.hpp"
#include "geom/obb.hpp"
#include "pointcloud/pointcloud.hpp"
#include "sim/types.hpp"

namespace erpd::sim {

/// Vertical field of view (degrees), ordered and inside tan's monotone
/// branch, as the scan's channel search needs (DESIGN.md §14).
inline constexpr double kVerticalFovMinDeg = -24.0;
inline constexpr double kVerticalFovMaxDeg = 4.0;
static_assert(-90.0 < kVerticalFovMinDeg &&
              kVerticalFovMinDeg <= kVerticalFovMaxDeg &&
              kVerticalFovMaxDeg < 90.0);

struct LidarConfig {
  int channels{32};
  /// Horizontal angular resolution (degrees); 0.4 deg -> 900 azimuths.
  double azimuth_step_deg{0.4};
  /// Gaussian range noise (meters); 0 disables.
  double noise_sigma{0.01};

  int azimuth_count() const {
    return static_cast<int>(360.0 / azimuth_step_deg);
  }
  /// Upper bound on returns per frame.
  std::size_t max_points() const {
    return static_cast<std::size_t>(channels) *
           static_cast<std::size_t>(azimuth_count());
  }
};

/// Something a LiDAR beam can hit: a vertical prism over a planar footprint.
struct LidarTarget {
  geom::Obb footprint;
  double base_z{0.0};
  double height{1.6};
  /// Agent id for dynamic objects; negative ids mark static scenery.
  AgentId id{kInvalidAgent};
};

struct LidarScan {
  /// Returns in the sensor frame (x forward at yaw=0 ... standard right-
  /// handed frame; z up, sensor at origin).
  pc::PointCloud cloud;
  /// Number of returns per dynamic agent id (ids >= 0 only). Consumers do
  /// keyed lookups (sees()) or commutative folds only — never order-bearing
  /// iteration — so a hash map is safe here; core::DetHash makes the bucket
  /// layout platform-stable and lets the determinism torture scramble it
  /// (ERPD_DETLINT_SHUFFLE) to prove no output depends on it.
  std::unordered_map<AgentId, std::size_t, core::DetHash<AgentId>>
      points_per_agent;
  std::size_t ground_points{0};
  std::size_t static_points{0};

  bool sees(AgentId id, std::size_t min_points = 3) const {
    const auto it = points_per_agent.find(id);
    return it != points_per_agent.end() && it->second >= min_points;
  }
};

class LidarSensor {
 public:
  /// Contract: channels >= 1 and azimuth_step_deg in (0, 360] (at least one
  /// azimuth); anything else throws ContractViolation.
  explicit LidarSensor(LidarConfig cfg = {});

  const LidarConfig& config() const { return cfg_; }

  /// Scan the scene from `pose` (sensor origin, world frame). Output is
  /// bit-identical for every worker count and to the serial textbook scan
  /// in tests/lidar_oracle.hpp (DESIGN.md §14).
  LidarScan scan(const geom::Pose& pose, std::span<const LidarTarget> targets,
                 std::mt19937_64& rng) const;

  /// The same scan written into `out`, whose previous contents are
  /// discarded and whose capacity is reused.
  void scan(const geom::Pose& pose, std::span<const LidarTarget> targets,
            std::mt19937_64& rng, LidarScan& out) const;

 private:
  LidarConfig cfg_;
  std::vector<double> elevations_;  // per-channel elevation (radians)
  /// tan(elevation) per channel, hoisted out of the per-azimuth loop (same
  /// std::tan call on the same double, so the values are bit-identical).
  std::vector<double> tan_elevations_;
  /// Per-azimuth world heading and unit direction. Pure functions of the
  /// azimuth index and configuration (never of the pose), precomputed with
  /// the scan loop's exact expressions so the accelerated path can skip one
  /// sincos per ray per scan.
  std::vector<double> azimuth_world_;
  std::vector<geom::Vec2> azimuth_dirs_;
};

/// Slack (meters) on an occluder's bounding circle in SightOccluders. It
/// covers every hit `geom::intersect` accepts off the box edge's exact
/// extent (DESIGN.md §19): 1e-12 x segment length for the t/u range, at
/// most 2e-6 m for the collinear branch, 1e-9 for a degenerate ray, plus
/// Obb::contains' 1e-9 boundary band. The exception is a ray along a box
/// edge's line to ~1e-14 rad, where rounding can accept a hit past the
/// edge's end; the cull drops that hit.
inline constexpr double kSightSlack = 1e-5;

/// The driver model's line-of-sight test from one eye: a segment from the
/// eye to a target is blocked when it enters any occluder footprint
/// (Obb::ray_hit at t in [0, 1)). Rebuilt per viewer; each box's edges are
/// computed once at add(), and a box whose bounding circle, inflated by
/// kSightSlack, misses the segment is skipped without a ray test. "Any box
/// blocks" is order-free, so the skip never changes an answer.
class SightOccluders {
 public:
  /// Drop every occluder and anchor the rays at `eye`.
  void reset(geom::Vec2 eye);

  geom::Vec2 eye() const { return eye_; }

  /// Add an occluder; `tag` lets visible() leave it out for one target.
  void add(const geom::Obb& box, std::size_t tag);

  /// True if no added box, other than those tagged `skip`, blocks the
  /// segment from the eye to `target`. Adds the ray tests it ran to
  /// `ray_tests`.
  bool visible(geom::Vec2 target, std::size_t skip,
               std::uint64_t& ray_tests) const;

 private:
  geom::Vec2 eye_{};
  geom::ObbRaySoa rays_;
  std::vector<geom::Vec2> centers_;
  /// (Bounding-circle radius + kSightSlack)^2.
  std::vector<double> reach_sq_;
  std::vector<std::size_t> tags_;
};

}  // namespace erpd::sim
