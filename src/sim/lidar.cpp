#include "sim/lidar.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "core/detlint.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "geom/angle.hpp"
#include "sim/azimuth_index.hpp"

namespace erpd::sim {

using geom::Vec2;
using geom::Vec3;

LidarSensor::LidarSensor(LidarConfig cfg) : cfg_(cfg) {
  ERPD_REQUIRE(cfg_.channels >= 1, "LidarSensor: channels must be >= 1, got ",
               cfg_.channels);
  ERPD_REQUIRE(cfg_.azimuth_step_deg > 0.0,
               "LidarSensor: azimuth_step_deg must be > 0, got ",
               cfg_.azimuth_step_deg);
  ERPD_REQUIRE(cfg_.azimuth_count() >= 1,
               "LidarSensor: azimuth_step_deg must be <= 360 (at least one "
               "azimuth per scan), got ",
               cfg_.azimuth_step_deg);
  ERPD_REQUIRE(cfg_.max_range > 0.0, "LidarSensor: max_range must be > 0, got ",
               cfg_.max_range);
  ERPD_REQUIRE(-90.0 < cfg_.vertical_fov_min_deg &&
                   cfg_.vertical_fov_min_deg <= cfg_.vertical_fov_max_deg &&
                   cfg_.vertical_fov_max_deg < 90.0,
               "LidarSensor: need -90 < vertical_fov_min_deg <= "
               "vertical_fov_max_deg < 90, got [",
               cfg_.vertical_fov_min_deg, ", ", cfg_.vertical_fov_max_deg, "]");
  elevations_.reserve(static_cast<std::size_t>(cfg_.channels));
  const double lo = geom::deg_to_rad(cfg_.vertical_fov_min_deg);
  const double hi = geom::deg_to_rad(cfg_.vertical_fov_max_deg);
  for (int c = 0; c < cfg_.channels; ++c) {
    const double t =
        cfg_.channels == 1 ? 0.5 : static_cast<double>(c) / (cfg_.channels - 1);
    elevations_.push_back(lo + t * (hi - lo));
  }
  tan_elevations_.reserve(elevations_.size());
  for (const double elev : elevations_) {
    tan_elevations_.push_back(std::tan(elev));
  }
  // The scan's channel resolution binary-searches the beam height
  // z(c) = sensor_z + dist * tan(elev_c), which needs z non-decreasing in c.
  // The FOV contract above makes the elevations non-decreasing and keeps
  // them inside tan's monotone branch; checked once on the actual values.
  ERPD_ENSURE(std::is_sorted(tan_elevations_.begin(), tan_elevations_.end()),
              "LidarSensor: tan(elevation) table is not non-decreasing");
  {
    const int n_az = cfg_.azimuth_count();
    const double az_step = geom::kTwoPi / n_az;
    azimuth_world_.reserve(static_cast<std::size_t>(n_az));
    azimuth_dirs_.reserve(static_cast<std::size_t>(n_az));
    for (std::size_t ia = 0; ia < static_cast<std::size_t>(n_az); ++ia) {
      const double az_world = -geom::kPi + static_cast<double>(ia) * az_step;
      azimuth_world_.push_back(az_world);
      azimuth_dirs_.push_back(geom::Vec2::from_heading(az_world));
    }
  }
}

namespace {

/// Azimuth interval (possibly wrapping) that a target subtends from the eye.
struct AngularSpan {
  double center{0.0};
  double half_width{0.0};
  bool covers(double azimuth) const {
    return geom::angle_dist(azimuth, center) <= half_width;
  }
};

AngularSpan subtended(Vec2 eye, const geom::Obb& box) {
  const Vec2 d = box.center() - eye;
  const double dist = d.norm();
  const double radius =
      0.5 * std::hypot(box.length(), box.width());  // circumscribed circle
  AngularSpan span;
  span.center = d.heading();
  if (dist <= radius) {
    span.half_width = geom::kPi;  // eye inside the circumcircle: all azimuths
  } else {
    span.half_width = std::asin(std::min(1.0, radius / dist)) + 1e-3;
  }
  return span;
}

/// Tight bin span for the acceleration index: the cone of directions from
/// the eye that can touch the box is exactly the arc spanned by its corner
/// directions (the box is convex and the eye outside it), which for a long
/// wall seen side-on is far narrower than its circumcircle span. Padded by
/// 1e-3 rad here plus one bin on each side inside AzimuthIndex — orders of
/// magnitude beyond the FP slop of the intersection kernel — so the bins a
/// candidate lands in are a strict superset of the bins it can be hit from.
BinSpan corner_bin_span(Vec2 eye, const geom::Obb& box, bool eye_inside) {
  BinSpan out;
  if (eye_inside) {
    out.half_width = geom::kPi;  // hit at t = 0 from every azimuth
    return out;
  }
  out.center = (box.center() - eye).heading();
  double hw = 0.0;
  for (const Vec2& corner : box.corners()) {
    hw = std::max(hw,
                  std::abs(geom::wrap_angle((corner - eye).heading() -
                                            out.center)));
  }
  out.half_width = hw + 1e-3;
  return out;
}

/// Azimuths per parallel chunk. Fixed (never derived from the worker count)
/// so the chunk decomposition — and with it the merged output — is identical
/// for every ERPD_THREADS setting.
constexpr std::size_t kAzimuthGrain = 64;

/// Sort a small vector under a strict TOTAL order (every pair of distinct
/// elements compares unequal). The sorted permutation is then unique, so the
/// algorithm cannot affect the result — insertion sort just skips
/// std::sort's dispatch overhead at typical per-azimuth hit counts (a
/// handful of entries).
template <typename T, typename Less>
void sort_total_order(std::vector<T>& v, Less less) {
  if (v.size() > 16) {
    std::sort(v.begin(), v.end(), less);
    return;
  }
  for (std::size_t i = 1; i < v.size(); ++i) {
    T tmp = v[i];
    std::size_t j = i;
    for (; j > 0 && less(tmp, v[j - 1]); --j) v[j] = v[j - 1];
    v[j] = tmp;
  }
}

}  // namespace

LidarScan LidarSensor::scan(const geom::Pose& pose,
                            std::span<const LidarTarget> targets,
                            std::mt19937_64& rng) const {
  LidarScan out;
  scan(pose, targets, rng, out);
  return out;
}

void LidarSensor::scan(const geom::Pose& pose,
                       std::span<const LidarTarget> targets,
                       std::mt19937_64& rng, LidarScan& out) const {
  out.cloud.clear();
  out.points_per_agent.clear();
  out.ground_points = 0;
  out.static_points = 0;

  const Vec2 eye = pose.position.xy();
  const double sensor_z = pose.position.z;
  const int n_az = cfg_.azimuth_count();
  const double az_step = geom::kTwoPi / n_az;

  // Range noise is derived per azimuth from one base draw, so each azimuth's
  // stream is independent of the order azimuths are processed in — the
  // parallel and serial schedules produce bit-identical clouds. With noise
  // disabled the caller's RNG is left untouched (as before).
  const bool noisy = cfg_.noise_sigma > 0.0;
  const std::uint64_t noise_base = noisy ? rng() : 0;

  // Per-scan precomputation (all shared and read-only across chunks):
  //  - each candidate's circumcircle span, re-checked exactly per ray;
  //  - SoA edge/eye-inside tables: corners() and contains(eye) hoisted out
  //    of the per-ray loop (the ray origin never changes in a scan);
  //  - azimuth-interval index over corner-tight spans: each ray probes a
  //    short per-bin candidate list instead of every candidate;
  //  - ground-return range per channel: -sensor_z / tan_e is a per-scan
  //    constant.
  struct Candidate {
    const LidarTarget* target;
    AngularSpan span;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(targets.size());
  geom::ObbRaySoa soa;
  std::vector<BinSpan> bin_spans;
  bin_spans.reserve(targets.size());
  for (const LidarTarget& t : targets) {
    const double d = (t.footprint.center() - eye).norm();
    if (d - t.footprint.max_extent() > cfg_.max_range) continue;
    candidates.push_back({&t, subtended(eye, t.footprint)});
    soa.add(t.footprint, eye);
    bin_spans.push_back(
        corner_bin_span(eye, t.footprint, soa.eye_inside(soa.size() - 1)));
  }
  AzimuthIndex index;
  index.build(bin_spans, n_az, az_step);

  const std::size_t n_ch = elevations_.size();
  std::vector<double> ground_dist(n_ch, 0.0);
  std::vector<std::uint8_t> ground_ok(n_ch, 0);
  std::vector<std::uint32_t> ground_channels;  // ascending c, ground-capable
  for (std::size_t c = 0; c < n_ch; ++c) {
    const double tan_e = tan_elevations_[c];
    if (tan_e < 0.0) {
      const double ground_d = -sensor_z / tan_e;
      ground_dist[c] = ground_d;
      if (ground_d <= cfg_.max_range) {
        ground_ok[c] = 1;
        ground_channels.push_back(static_cast<std::uint32_t>(c));
      }
    }
  }

  struct Hit {
    double dist;
    const LidarTarget* target;
    std::uint32_t cand;  // candidate index: deterministic equal-range order
  };
  // Nearest first; equal distances (e.g. coincident footprint edges) break
  // ties on candidate index so the struck target never depends on sort
  // implementation details.
  const auto hit_less = [](const Hit& a, const Hit& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.cand < b.cand;
  };

  // Per-chunk accumulation, merged in chunk (= azimuth) order afterwards.
  struct ChunkOut {
    std::vector<Vec3> points;
    std::unordered_map<AgentId, std::size_t, core::DetHash<AgentId>>
        points_per_agent;
    std::size_t ground_points{0};
    std::size_t static_points{0};
  };
  const std::size_t n_chunks =
      core::chunk_count(static_cast<std::size_t>(n_az), kAzimuthGrain);
  std::vector<ChunkOut> chunks(n_chunks);

  // World->sensor frame conversion (the uplink operates on sensor-frame
  // clouds plus the pose, as in the paper), fused into the emit so the
  // cloud is written once.
  const geom::Mat4 t_wl = geom::Mat4::from_pose(pose).rigid_inverse();

  // When the chunk schedule is provably serial-in-order — a single global
  // worker lane, a single chunk, or a scan nested in another parallel region
  // (the serial fallback runs chunks in ascending order on the calling
  // thread) — emit straight into the output cloud: the merge below would
  // concatenate the chunk buffers in exactly that order anyway, so skipping
  // them changes no bytes and saves a full copy of the cloud plus the
  // per-chunk allocations.
  std::vector<Vec3>* const direct =
      core::runs_serially(n_chunks) ? &out.cloud.points() : nullptr;
  if (direct != nullptr) {
    direct->reserve(static_cast<std::size_t>(n_az) * n_ch);
  }

  core::parallel_chunks(
      static_cast<std::size_t>(n_az), kAzimuthGrain,
      [&](std::size_t az_begin, std::size_t az_end, std::size_t ci) {
        ChunkOut& co = chunks[ci];
        // Full-size reserve: a chunk can emit up to one point per channel
        // per azimuth, and an undersized buffer pays reallocation + copy
        // mid-chunk (measurably ~9 ns/point on the bench scene).
        std::vector<Vec3>& pts = direct != nullptr ? *direct : co.points;
        if (direct == nullptr) {
          co.points.reserve((az_end - az_begin) * n_ch);
        }
        std::vector<Hit> hits;  // reused across this chunk's azimuths
        // Per-candidate tallies; folded into the per-agent map once per
        // chunk instead of one hash probe per struck point.
        std::vector<std::size_t> cand_points(candidates.size(), 0);
        // Per-azimuth scratch: which hit (index into `hits`) blocks each
        // channel, and the azimuth's noise draws generated in one batch.
        std::vector<std::int32_t> struck_idx(n_ch, -1);
        std::vector<double> noise_buf(n_ch, 0.0);

        for (std::size_t ia = az_begin; ia < az_end; ++ia) {
          const double az_world = azimuth_world_[ia];
          const Vec2 dir = azimuth_dirs_[ia];

          core::SplitMix64 az_rng(core::seed_mix(noise_base, ia));
          core::NormalSampler noise(0.0, cfg_.noise_sigma);

          // All obstructions along this azimuth, nearest first. The bin
          // holds a superset of the candidates hittable at this azimuth,
          // in ascending candidate order; the exact covers() re-check
          // keeps the probed set — and with it the hit list — identical
          // to a scan that tests every candidate's circumcircle span.
          hits.clear();
          const std::span<const std::uint32_t> bin = index.bin(ia);
          if (!bin.empty()) {
            const geom::Segment ray{eye, eye + dir * cfg_.max_range};
            for (const std::uint32_t j : bin) {
              const Candidate& c = candidates[j];
              if (!c.span.covers(az_world)) continue;
              const double t = soa.ray_hit(j, ray);
              if (t >= 0.0) {
                hits.push_back({t * cfg_.max_range, c.target, j});
              }
            }
            // (dist, cand) is a total order — cand is unique per entry —
            // so any comparison sort yields the same sequence.
            if (hits.size() > 1) sort_total_order(hits, hit_less);
          }

          if (hits.empty()) {
            // Nothing blocks any beam at this azimuth: only the
            // ground-capable channels emit, in the same ascending-channel
            // order (and hence the same noise-draw order) as the general
            // loop below.
            const std::size_t m = ground_channels.size();
            if (noisy && m > 0) noise.fill(az_rng, noise_buf.data(), m);
            std::size_t k = 0;
            for (const std::uint32_t c : ground_channels) {
              const double nz = noisy ? noise_buf[k++] : 0.0;
              const double d = ground_dist[c] + nz;
              const Vec2 pxy = eye + dir * d;
              pts.push_back(t_wl.transform_point(Vec3{pxy, 0.0}));
            }
            co.ground_points += m;
            continue;
          }

          // Pass 1: resolve which hit (if any) blocks each channel and
          // count the azimuth's emissions, so the noise draws can be
          // generated in one batch. Channels consume draws in ascending
          // order, one per emitted point.
          //
          // z(c) is non-decreasing (constructor contract), so the channels
          // a hit blocks — { c : z(c) >= base  &&  z(c) <= base + height } —
          // form a contiguous range; binary-search its endpoints with the
          // EXACT per-channel predicate arithmetic, then claim unclaimed
          // channels. Nearest hit first (hits is sorted), so first-claim ==
          // "first hit in sorted order that covers c".
          std::fill(struck_idx.begin(), struck_idx.end(), std::int32_t{-1});
          for (std::size_t k2 = 0; k2 < hits.size(); ++k2) {
            const Hit& h = hits[k2];
            const double base = h.target->base_z;
            const double top = h.target->base_z + h.target->height;
            std::size_t lo = 0;
            std::size_t hi = n_ch;
            while (lo < hi) {  // first c with z(c) >= base
              const std::size_t mid = (lo + hi) / 2;
              const double z = sensor_z + h.dist * tan_elevations_[mid];
              if (z >= base) {
                hi = mid;
              } else {
                lo = mid + 1;
              }
            }
            const std::size_t clo = lo;
            hi = n_ch;
            while (lo < hi) {  // first c with z(c) > top
              const std::size_t mid = (lo + hi) / 2;
              const double z = sensor_z + h.dist * tan_elevations_[mid];
              if (z <= top) {
                lo = mid + 1;
              } else {
                hi = mid;
              }
            }
            for (std::size_t c = clo; c < lo; ++c) {
              if (struck_idx[c] < 0) {
                struck_idx[c] = static_cast<std::int32_t>(k2);
              }
            }
          }
          std::size_t m = 0;
          for (std::size_t c = 0; c < n_ch; ++c) {
            if (struck_idx[c] >= 0 || ground_ok[c] != 0) ++m;
          }
          if (noisy && m > 0) noise.fill(az_rng, noise_buf.data(), m);

          // Pass 2: emit.
          std::size_t k = 0;
          for (std::size_t c = 0; c < n_ch; ++c) {
            const std::int32_t si = struck_idx[c];
            if (si >= 0) {
              const Hit& h = hits[static_cast<std::size_t>(si)];
              const double nz = noisy ? noise_buf[k++] : 0.0;
              const double d = h.dist + nz;
              const Vec2 pxy = eye + dir * d;
              pts.push_back(t_wl.transform_point(
                  Vec3{pxy, sensor_z + h.dist * tan_elevations_[c]}));
              ++cand_points[h.cand];
              continue;
            }
            // No prism in the way; downward beams reach the ground.
            if (ground_ok[c] != 0) {
              const double nz = noisy ? noise_buf[k++] : 0.0;
              const double d = ground_dist[c] + nz;
              const Vec2 pxy = eye + dir * d;
              pts.push_back(t_wl.transform_point(Vec3{pxy, 0.0}));
              ++co.ground_points;
            }
          }
        }

        // Fold candidate tallies into the chunk's per-agent map in
        // ascending candidate order (a deterministic fold; += into the
        // same id from several candidates commutes anyway).
        for (std::size_t j = 0; j < cand_points.size(); ++j) {
          if (cand_points[j] == 0) continue;
          if (candidates[j].target->id >= 0) {
            co.points_per_agent[candidates[j].target->id] += cand_points[j];
          } else {
            co.static_points += cand_points[j];
          }
        }
      });

  // Deterministic reduction: chunk outputs are visited in chunk (= ascending
  // azimuth) order, so the concatenated cloud is byte-identical to the
  // serial scan for any worker count. (With direct emission the chunk point
  // buffers are empty and the cloud is already complete.)
  std::size_t total = 0;
  for (const ChunkOut& co : chunks) total += co.points.size();
  out.cloud.reserve(total);
  for (const ChunkOut& co : chunks) {
    out.cloud.points().insert(out.cloud.points().end(), co.points.begin(),
                              co.points.end());
    // Within one chunk the per-agent tallies are visited in hash order,
    // which is fine: the fold is a per-key += of unsigned counts, and
    // addition into distinct map slots commutes — every visitation order
    // yields the same final map. The chunk loop around it is ordered, so
    // the only unordered step is this provably commutative one.
    ERPD_ORDER_INSENSITIVE(
        "per-key += of unsigned counts into distinct slots commutes");
    for (const auto& [id, n] : co.points_per_agent) {
      out.points_per_agent[id] += n;
    }
    out.ground_points += co.ground_points;
    out.static_points += co.static_points;
  }
}

void SightOccluders::reset(Vec2 eye) {
  eye_ = eye;
  rays_.clear();
  centers_.clear();
  reach_sq_.clear();
  tags_.clear();
}

void SightOccluders::add(const geom::Obb& box, std::size_t tag) {
  rays_.add(box, eye_);
  centers_.push_back(box.center());
  const double reach = 0.5 * std::hypot(box.length(), box.width()) + kSightSlack;
  reach_sq_.push_back(reach * reach);
  tags_.push_back(tag);
}

bool SightOccluders::visible(Vec2 target, std::size_t skip,
                             std::uint64_t& ray_tests) const {
  const geom::Segment seg{eye_, target};
  const Vec2 d = target - eye_;
  const double dd = d.dot(d);
  for (std::size_t k = 0; k < tags_.size(); ++k) {
    if (tags_[k] == skip) continue;
    // Squared distance from the box center to the segment; its rounding is
    // far inside kSightSlack.
    const Vec2 w = centers_[k] - eye_;
    const double wd = w.dot(d);
    const double dist_sq = wd <= 0.0 ? w.dot(w)
                           : wd >= dd ? (w - d).dot(w - d)
                                      : w.dot(w) - wd * wd / dd;
    if (dist_sq > reach_sq_[k]) continue;
    ++ray_tests;
    const double t = rays_.ray_hit(k, seg);
    if (t >= 0.0 && t < 1.0) return false;
  }
  return true;
}

}  // namespace erpd::sim
