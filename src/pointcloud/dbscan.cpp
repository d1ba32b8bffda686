#include "pointcloud/dbscan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "core/check.hpp"

namespace erpd::pc {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
constexpr std::int32_t kUnset = std::numeric_limits<std::int32_t>::max();
/// Bound on the column table (4 B a column), on z layers and relative keys.
constexpr std::uint64_t kMaxColumns = 1 << 20;

/// Keys along one axis, into `key`: floor((v - lo) / side) while the extent
/// spans under kMaxColumns keys, which leaves ~30 fractional bits for
/// rounding. Wider extents (any finite one) take segment keys: a sorted
/// sweep starts a segment three keys on at every gap wider than 2·eps, which
/// no near pair straddles, and keys points from the segment's start. A
/// segment of m points spans at most 2·eps·m, so keys stay below 7n.
void axis_keys(const PointCloud& cloud, double geom::Vec3::*axis, double lo,
               double hi, double eps, double side,
               std::vector<std::uint32_t>& key) {
  const std::size_t n = cloud.size();
  key.resize(n);
  if ((hi - lo) / side < kMaxColumns) {  // false for an infinite extent
    for (std::size_t i = 0; i < n; ++i) {
      key[i] = static_cast<std::uint32_t>((cloud[i].*axis - lo) / side);
    }
    return;
  }
  std::vector<std::uint32_t> by(n);
  std::iota(by.begin(), by.end(), 0u);
  std::sort(by.begin(), by.end(), [&](std::uint32_t a, std::uint32_t b) {
    return cloud[a].*axis < cloud[b].*axis;
  });
  double first = cloud[by[0]].*axis;
  std::uint32_t base = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double v = cloud[by[j]].*axis;
    if (j > 0 && v - cloud[by[j - 1]].*axis > 2.0 * eps) {
      base = key[by[j - 1]] + 3;
      first = v;
    }
    key[by[j]] = base + static_cast<std::uint32_t>((v - first) / side);
  }
}

/// Cubic cells of side eps/√3, counting-sorted by (x, y, z) key into
/// sc.order / sc.start, with a dense column table, and each cell's
/// neighbours in sc.nbr. A box too large for the table merges 2^s keys per
/// axis: near pairs stay within two keys, but cells seldom pass the
/// bounding-box test.
void index_cells(const PointCloud& cloud, double eps, DbscanScratch& sc) {
  const double side = eps / std::sqrt(3.0);
  geom::Vec3 lo = cloud[0];
  geom::Vec3 hi = lo;
  for (const geom::Vec3& p : cloud.points()) {
    ERPD_REQUIRE(std::isfinite(p.x) && std::isfinite(p.y) &&
                     std::isfinite(p.z),
                 "dbscan: non-finite point ", p);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  constexpr double geom::Vec3::*kAxes[] = {&geom::Vec3::x, &geom::Vec3::y,
                                          &geom::Vec3::z};
  std::array<std::vector<std::uint32_t>, 3>& key = sc.key;
  std::array<std::uint64_t, 3> top{};
  for (std::size_t a = 0; a < 3; ++a) {
    axis_keys(cloud, kAxes[a], lo.*kAxes[a], hi.*kAxes[a], eps, side, key[a]);
    top[a] = *std::max_element(key[a].begin(), key[a].end());
  }
  // Two empty columns pad each side of the table.
  unsigned s = 0;
  const auto span = [&](std::size_t a) { return (top[a] >> s) + 5; };
  while (span(0) * span(1) > kMaxColumns || span(2) > kMaxColumns) ++s;
  const std::uint64_t ny = span(1);
  const std::uint64_t nz = span(2);
  const std::size_t n = cloud.size();
  std::vector<std::uint32_t>& col = key[0];
  std::vector<std::uint32_t>& kz = key[2];
  for (std::size_t i = 0; i < n; ++i) {
    col[i] = static_cast<std::uint32_t>(((col[i] >> s) + 2) * ny +
                                        (key[1][i] >> s) + 2);
    kz[i] >>= s;
  }

  // Counting sort by z, then stably by column.
  const std::uint64_t ncol = span(0) * ny;
  // resize + fill, not assign: a table that outgrows a reused buffer then
  // grows it geometrically instead of to the exact size.
  std::vector<std::uint32_t>& count = sc.count;
  count.resize(std::max(ncol, nz) + 1);
  std::fill(count.begin(), count.end(), 0);
  std::vector<std::uint32_t>& by_z = key[1];
  for (const std::uint32_t z : kz) ++count[z + 1];
  std::partial_sum(count.begin(), count.begin() + nz + 1, count.begin());
  for (std::uint32_t i = 0; i < n; ++i) by_z[count[kz[i]]++] = i;
  std::fill(count.begin(), count.end(), 0);
  for (const std::uint32_t k : col) ++count[k + 1];
  std::partial_sum(count.begin(), count.begin() + ncol + 1, count.begin());
  std::vector<std::uint32_t>& order = sc.order;
  order.resize(n);
  for (const std::uint32_t i : by_z) order[count[col[i]]++] = i;
  std::vector<std::uint32_t>& start = sc.start;
  std::vector<std::uint32_t>& cell_z = sc.cell_z;
  start.clear();
  cell_z.clear();
  for (std::uint32_t j = 0; j < n; ++j) {
    const std::uint32_t i = order[j];
    const std::uint32_t prev = order[j == 0 ? 0 : j - 1];
    if (j == 0 || col[i] != col[prev] || kz[i] != kz[prev]) {
      start.push_back(j);
      cell_z.push_back(kz[i]);
    }
  }
  start.push_back(static_cast<std::uint32_t>(n));
  const std::size_t nc = cell_z.size();
  const auto col_of = [&](std::size_t a) { return col[order[start[a]]]; };

  // `count` turns into the column table: column id holds cells
  // [count[id], count[id + 1]).
  std::fill(count.begin(), count.end(), 0);
  for (std::size_t a = 0; a < nc; ++a) ++count[col_of(a) + 1];
  std::partial_sum(count.begin(), count.begin() + ncol + 1, count.begin());

  // Neighbour lists. A column's cells ascend by z, and so do the cells a of
  // one column, so each neighbour column keeps a cursor below its z window.
  struct Column {
    std::uint32_t next, end;
    int cls;  // axes among x, y with a two-key offset
  };
  std::array<Column, 25> cols;
  std::size_t m = 0;
  // Staging by class; the 124 stencil cells split 26, 54, 36, 8.
  constexpr std::array<std::uint32_t, 4> kAt{0, 26, 80, 116};
  std::array<std::uint32_t, 124> stage;
  sc.nbr_start.assign(1, 0);
  sc.nbr.clear();
  sc.nbr.reserve(16 * nc);
  for (std::size_t a = 0; a < nc; ++a) {
    if (a == 0 || col_of(a) != col_of(a - 1)) {
      m = 0;
      for (std::int64_t dx = -2; dx <= 2; ++dx) {
        for (std::int64_t dy = -2; dy <= 2; ++dy) {
          const std::uint64_t id = col_of(a) + dx * ny + dy;
          if (count[id] == count[id + 1]) continue;
          const int cls = (dx * dx == 4) + (dy * dy == 4);
          cols[m++] = {count[id], count[id + 1], cls};
        }
      }
    }
    std::array<std::uint32_t, 4> fill = kAt;
    const std::uint32_t za = cell_z[a];
    for (std::size_t r = 0; r < m; ++r) {
      Column& nb = cols[r];
      while (nb.next < nb.end && cell_z[nb.next] + 2 < za) ++nb.next;
      for (std::uint32_t b = nb.next; b < nb.end && cell_z[b] <= za + 2; ++b) {
        const bool two = cell_z[b] + 2 == za || za + 2 == cell_z[b];
        if (b != a) stage[fill[nb.cls + two]++] = b;
      }
    }
    for (std::size_t k = 0; k < 4; ++k) {
      sc.nbr.insert(sc.nbr.end(), stage.data() + kAt[k],
                    stage.data() + fill[k]);
      sc.nbr_start.push_back(static_cast<std::uint32_t>(sc.nbr.size()));
    }
  }
}

}  // namespace

DbscanResult dbscan(const PointCloud& cloud, const DbscanConfig& cfg) {
  DbscanScratch scratch;
  return dbscan(cloud, cfg, scratch);
}

DbscanResult dbscan(const PointCloud& cloud, const DbscanConfig& cfg,
                    DbscanScratch& sc) {
  const double eps2 = cfg.eps * cfg.eps;
  ERPD_REQUIRE(cfg.eps > 0.0 && std::isnormal(eps2),
               "dbscan: eps must be > 0 with eps * eps a normal double, got ",
               cfg.eps);
  ERPD_REQUIRE(cfg.min_pts > 0, "dbscan: min_pts must be > 0");
  ERPD_REQUIRE(cloud.size() <= (1u << 29), "dbscan: over 2^29 points");

  DbscanResult res;
  const std::uint32_t n = static_cast<std::uint32_t>(cloud.size());
  res.labels.assign(n, kNoise);
  if (n == 0) return res;

  index_cells(cloud, cfg.eps, sc);
  const std::size_t nc = sc.start.size() - 1;
  sc.compact.resize(nc);
  sc.core.resize(n);
  sc.first_core.assign(nc, kNone);
  sc.parent.resize(n);
  sc.low.assign(nc, kUnset);
  // The loops below see the scratch through spans: a store through a
  // uint8_t* may alias a vector's own pointers, and would force the compiler
  // to reload them after every write.
  const std::span<const std::uint32_t> order(sc.order);
  const std::span<const std::uint32_t> start(sc.start);
  const std::span<const std::uint32_t> nbr(sc.nbr);
  const std::span<const std::uint32_t> nbr_start(sc.nbr_start);
  const std::span<std::uint8_t> compact(sc.compact);
  const std::span<std::uint8_t> core(sc.core);
  const std::span<std::uint32_t> first_core(sc.first_core);
  const std::span<std::uint32_t> parent(sc.parent);  // rule 2's union-find
  const std::span<std::int32_t> low(sc.low);
  const auto near = [&](const geom::Vec3& d) {
    ++res.distance_tests;
    return d.norm_sq() <= eps2;
  };
  const auto near_pts = [&](std::uint32_t a, std::uint32_t b) {
    return near(cloud[a] - cloud[b]);
  };
  // Neighbours of cell c in classes [k0, k1), nearest class first.
  const auto nbrs = [&](std::size_t c, std::size_t k0 = 0, std::size_t k1 = 4) {
    return std::pair{nbr.data() + nbr_start[4 * c + k0],
                     nbr.data() + nbr_start[4 * c + k1]};
  };

  // Rule 1. A cell whose bounding box passes the eps test is compact: every
  // pair in it is near, since rounding is monotone. Other points count
  // neighbours, own cell and nearest class first, up to min_pts.
  std::iota(parent.begin(), parent.end(), 0u);
  for (std::size_t c = 0; c < nc; ++c) {
    const std::uint32_t b0 = start[c];
    const std::uint32_t b1 = start[c + 1];
    geom::Vec3 lo = cloud[order[b0]];
    geom::Vec3 hi = lo;
    for (std::uint32_t j = b0 + 1; j < b1; ++j) {
      const geom::Vec3& p = cloud[order[j]];
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    }
    compact[c] = b1 - b0 == 1 || near(hi - lo);
    for (std::uint32_t j = b0; j < b1; ++j) {
      const std::uint32_t i = order[j];
      std::size_t count = compact[c] ? b1 - b0 : 1;
      for (std::uint32_t q = b0; !compact[c] && q < b1 && count < cfg.min_pts;
           ++q) {
        if (q != j && near_pts(i, order[q])) ++count;
      }
      for (auto [e, end] = nbrs(c); e != end && count < cfg.min_pts; ++e) {
        for (std::uint32_t q = start[*e];
             q < start[*e + 1] && count < cfg.min_pts; ++q) {
          if (near_pts(i, order[q])) ++count;
        }
      }
      core[i] = count >= cfg.min_pts;
      if (core[i] && first_core[c] == kNone) first_core[c] = i;
      if (core[i] && compact[c]) parent[i] = first_core[c];
    }
  }

  // Rule 2: union-find over core points, each compact cell one set already.
  // Linking the larger root under the smaller keeps every root its set's
  // smallest index.
  const auto find = [&](std::uint32_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  // Joins near core pairs of cells a and b (a == b: each pair once) whose
  // roots differ; with `first_only`, stops at the first.
  const auto join = [&](std::size_t a, std::size_t b, bool first_only) {
    for (std::uint32_t j = start[a]; j < start[a + 1]; ++j) {
      const std::uint32_t p = order[j];
      for (std::uint32_t k = a == b ? j + 1 : start[b];
           core[p] && k < start[b + 1]; ++k) {
        const std::uint32_t q = order[k];
        if (!core[q] || find(p) == find(q) || !near_pts(p, q)) continue;
        parent[std::max(find(p), find(q))] = std::min(find(p), find(q));
        if (first_only) return;
      }
    }
  };
  for (std::size_t a = 0; a < nc; ++a) {
    if (!compact[a]) join(a, a, false);
  }
  // Nearest class first: most pairs of one cluster are joined by the time
  // the farther classes come up, and cost no test.
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t a = 0; a < nc; ++a) {
      if (first_core[a] == kNone) continue;
      auto [e, end] = nbrs(a, k, k + 1);
      for (e = std::upper_bound(e, end, a); e != end; ++e) {
        if (first_core[*e] == kNone) continue;
        // Two compact cells are one set each: one near pair joins them.
        const bool both = compact[a] && compact[*e];
        if (both && find(first_core[a]) == find(first_core[*e])) continue;
        join(a, *e, both);
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    const std::uint32_t r = find(i);
    res.labels[i] = r == i ? res.cluster_count++ : res.labels[r];
  }

  // Rule 3. `low[c]` is the lowest id among cell c's core points; a cell
  // whose `low` cannot beat the best id so far is skipped untested.
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::uint32_t j = start[c]; j < start[c + 1]; ++j) {
      if (core[order[j]]) low[c] = std::min(low[c], res.labels[order[j]]);
    }
  }
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::uint32_t j = start[c]; j < start[c + 1]; ++j) {
      const std::uint32_t i = order[j];
      if (core[i]) continue;
      std::int32_t best = compact[c] ? low[c] : kUnset;  // all near
      const auto scan = [&](std::size_t b) {
        for (std::uint32_t k = start[b];
             k < start[b + 1] && low[b] < best; ++k) {
          const std::uint32_t q = order[k];
          if (core[q] && res.labels[q] < best && near_pts(i, q)) {
            best = res.labels[q];
          }
        }
      };
      if (!compact[c]) scan(c);
      for (auto [e, end] = nbrs(c); e != end; ++e) scan(*e);
      if (best != kUnset) res.labels[i] = best;
    }
  }
  return res;
}

std::vector<ObjectCluster> extract_clusters(const PointCloud& cloud,
                                            const DbscanResult& result) {
  std::vector<ObjectCluster> clusters(
      static_cast<std::size_t>(result.cluster_count));
  ERPD_REQUIRE(result.labels.size() == cloud.size(),
               "extract_clusters: labels/cloud size mismatch: ",
               result.labels.size(), " vs ", cloud.size());
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    const std::int32_t l = result.labels[i];
    if (l == kNoise) continue;
    ERPD_DCHECK(l >= 0 && l < result.cluster_count,
                "extract_clusters: label ", l, " out of range [0, ",
                result.cluster_count, ")");
    ObjectCluster& c = clusters[static_cast<std::size_t>(l)];
    c.indices.push_back(i);
    c.centroid += cloud[i];
    c.footprint.expand(cloud[i].xy());
  }
  for (ObjectCluster& c : clusters) {
    if (!c.indices.empty()) {
      c.centroid = c.centroid / static_cast<double>(c.indices.size());
    }
  }
  return clusters;
}

}  // namespace erpd::pc
