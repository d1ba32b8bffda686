#include "sim/azimuth_index.hpp"

#include <cmath>

#include "core/check.hpp"
#include "geom/angle.hpp"

namespace erpd::sim {

namespace {

/// Euclidean modulo into [0, n).
inline std::int64_t wrap_bin(std::int64_t ia, std::int64_t n) {
  const std::int64_t m = ia % n;
  return m < 0 ? m + n : m;
}

}  // namespace

void AzimuthIndex::build(std::span<const BinSpan> spans, int n_az,
                         double az_step) {
  ERPD_REQUIRE(n_az >= 1, "AzimuthIndex: n_az must be >= 1, got ", n_az);
  ERPD_REQUIRE(az_step > 0.0, "AzimuthIndex: az_step must be > 0, got ",
               az_step);
  const std::int64_t n = n_az;

  // Pass 1: resolve each span to an inclusive unwrapped bin range and count
  // entries per bin. Bin ia sits at azimuth -pi + ia * az_step, so azimuth a
  // maps to bin index (a + pi) / az_step; the floor/floor+1 pair below plus
  // the +-1 padding covers every integer in the real-valued range even under
  // worst-case rounding of the division.
  ranges_.clear();
  ranges_.reserve(spans.size());
  starts_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::uint32_t* counts = starts_.data() + 1;  // counts[ia] = starts_[ia + 1]
  for (const BinSpan& s : spans) {
    std::int64_t lo;
    std::int64_t hi;
    if (s.half_width >= geom::kPi) {
      lo = 0;
      hi = n - 1;
    } else {
      const double lo_f = (s.center - s.half_width + geom::kPi) / az_step;
      const double hi_f = (s.center + s.half_width + geom::kPi) / az_step;
      lo = static_cast<std::int64_t>(std::floor(lo_f)) - 1;
      hi = static_cast<std::int64_t>(std::floor(hi_f)) + 1;
      if (hi - lo + 1 >= n) {  // padded span wraps onto itself: all bins
        lo = 0;
        hi = n - 1;
      }
    }
    ranges_.push_back({lo, hi});
    for (std::int64_t ia = lo; ia <= hi; ++ia) ++counts[wrap_bin(ia, n)];
  }

  // Prefix-sum the counts into CSR starts.
  for (std::size_t ia = 1; ia < starts_.size(); ++ia) {
    starts_[ia] += starts_[ia - 1];
  }

  // Pass 2: fill. Spans are walked in ascending candidate order, so each
  // bin's list comes out ascending — the textbook oracle's visitation order.
  entries_.resize(starts_.back());
  cursor_.assign(starts_.begin(), starts_.end() - 1);
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    const auto [lo, hi] = ranges_[i];
    for (std::int64_t ia = lo; ia <= hi; ++ia) {
      entries_[cursor_[wrap_bin(ia, n)]++] = static_cast<std::uint32_t>(i);
    }
  }
}

}  // namespace erpd::sim
