#pragma once
// Azimuth-interval acceleration index for the ray-cast LiDAR (DESIGN.md §14).
//
// The scan loop asks, per azimuth, "which candidates could this ray hit?".
// Probing every candidate's angular span per ray is O(n_az x n_candidates);
// this index buckets each candidate's span into the scan's azimuth bins once
// per scan (flat CSR layout), so each ray walks a short per-bin list instead.
//
// Binning is deliberately conservative (a superset): integer bin ranges are
// padded by one bin on each side, and callers re-check the exact span (and
// the ray cast itself rejects geometric misses), so a candidate appearing in
// a bin it cannot be hit from never changes the output — it only costs time.
// Determinism: bins are filled by walking candidates in ascending index
// order, so every per-bin list is ascending — walking a bin visits
// candidates in exactly the order the textbook oracle (tests/lidar_oracle)
// does.

#include <cstdint>
#include <span>
#include <vector>

namespace erpd::sim {

/// Angular interval a candidate occupies, for binning. `half_width >= pi`
/// places the candidate in every bin (eye inside the footprint, or spans
/// too wide to bound).
struct BinSpan {
  double center{0.0};
  double half_width{0.0};
};

class AzimuthIndex {
 public:
  /// Build bin -> candidate-index lists for `n_az` uniform bins, bin `ia`
  /// at azimuth -pi + ia * az_step (the scan's ray headings). Reuses
  /// internal storage across builds.
  void build(std::span<const BinSpan> spans, int n_az, double az_step);

  /// Candidate indices whose (padded) span covers bin `ia`, ascending.
  std::span<const std::uint32_t> bin(std::size_t ia) const {
    return {entries_.data() + starts_[ia],
            entries_.data() + starts_[ia + 1]};
  }

 private:
  /// CSR: bin ia's candidates are entries_[starts_[ia] .. starts_[ia + 1]).
  std::vector<std::uint32_t> starts_;
  std::vector<std::uint32_t> entries_;
  /// Scratch: per-span inclusive unwrapped bin range, kept between the
  /// counting and fill passes.
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges_;
  std::vector<std::uint32_t> cursor_;
};

}  // namespace erpd::sim
