#include "core/dissemination.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace erpd::core {

Selection greedy_dissemination(std::vector<Candidate> candidates,
                               std::size_t budget_bytes) {
  // Sort by award R/s descending; equal awards break ties by higher
  // relevance so big useful payloads beat tiny ones at the same rate.
  // Zero-byte candidates with positive relevance are free relevance: they
  // rank strictly first (a finite pseudo-award like R*1e12 can be outranked
  // by a tiny payload and breaks tie-break transitivity).
  const auto rank = [](const Candidate& c) {
    // 0 = free (zero bytes, positive relevance), 1 = sized, 2 = irrelevant.
    if (c.relevance <= 0.0) return 2;
    return c.bytes == 0 ? 0 : 1;
  };
  std::sort(candidates.begin(), candidates.end(),
            [&rank](const Candidate& a, const Candidate& b) {
              const int ca = rank(a);
              const int cb = rank(b);
              if (ca != cb) return ca < cb;
              if (ca == 1) {
                const double ra = a.relevance / static_cast<double>(a.bytes);
                const double rb = b.relevance / static_cast<double>(b.bytes);
                if (ra != rb) return ra > rb;
              }
              return a.relevance > b.relevance;
            });
  Selection out;
  for (const Candidate& c : candidates) {
    if (c.relevance <= 0.0) break;  // the rest are irrelevant
    if (out.total_bytes + c.bytes > budget_bytes) continue;
    out.chosen.push_back(c);
    out.total_bytes += c.bytes;
    out.total_relevance += c.relevance;
  }
  return out;
}

Selection round_robin_dissemination(const std::vector<Candidate>& candidates,
                                    std::size_t budget_bytes,
                                    std::size_t& cursor) {
  Selection out;
  if (candidates.empty()) return out;
  const std::size_t n = candidates.size();
  cursor %= n;
  for (std::size_t k = 0; k < n; ++k) {
    const Candidate& c = candidates[(cursor + k) % n];
    if (c.bytes > budget_bytes) {
      // Larger than the whole per-frame budget: no future round can ever
      // deliver it either. Stalling the rotation here (the pre-fix
      // behaviour) starved every vehicle permanently once one oversized
      // object reached the cursor; skip it and keep rotating.
      continue;
    }
    if (out.total_bytes + c.bytes > budget_bytes) {
      // Head-of-line blocking: RR stalls on the first item that no longer
      // fits *this* frame, resuming there next frame (matches EMP's
      // behaviour of spreading the map over rounds).
      cursor = (cursor + k) % n;
      return out;
    }
    out.chosen.push_back(c);
    out.total_bytes += c.bytes;
    out.total_relevance += c.relevance;
  }
  cursor = (cursor + n) % n;
  return out;
}

Selection broadcast_dissemination(const std::vector<Candidate>& candidates) {
  Selection out;
  out.chosen = candidates;
  for (const Candidate& c : candidates) {
    out.total_bytes += c.bytes;
    out.total_relevance += c.relevance;
  }
  return out;
}

}  // namespace erpd::core
