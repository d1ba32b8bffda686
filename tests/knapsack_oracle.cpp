#include "knapsack_oracle.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace erpd::core {

Selection optimal_dissemination(const std::vector<Candidate>& candidates,
                                std::size_t budget_bytes,
                                std::size_t resolution_bytes) {
  ERPD_REQUIRE(resolution_bytes > 0,
               "optimal_dissemination: resolution must be > 0");
  // Quantize weights *up* so the solution always respects the true budget.
  const std::size_t cap = budget_bytes / resolution_bytes;
  std::vector<std::size_t> w(candidates.size());
  std::vector<const Candidate*> items;
  std::vector<std::size_t> weights;
  for (const Candidate& c : candidates) {
    if (c.relevance <= 0.0) continue;
    const std::size_t wc = (c.bytes + resolution_bytes - 1) / resolution_bytes;
    if (wc > cap) continue;
    items.push_back(&c);
    weights.push_back(wc);
  }

  // value[b] = best relevance with budget b; choice tracking for recovery.
  std::vector<double> value(cap + 1, 0.0);
  std::vector<std::vector<bool>> taken(items.size(),
                                       std::vector<bool>(cap + 1, false));
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::size_t wi = weights[i];
    const double vi = items[i]->relevance;
    for (std::size_t b = cap + 1; b-- > wi;) {
      if (value[b - wi] + vi > value[b]) {
        value[b] = value[b - wi] + vi;
        taken[i][b] = true;
      }
    }
  }

  Selection out;
  std::size_t b = cap;
  for (std::size_t i = items.size(); i-- > 0;) {
    if (taken[i][b]) {
      ERPD_DCHECK(b >= weights[i],
                  "optimal_dissemination: knapsack backtrack underflow at item ",
                  i);
      out.chosen.push_back(*items[i]);
      out.total_bytes += items[i]->bytes;
      out.total_relevance += items[i]->relevance;
      b -= weights[i];
    }
  }
  std::reverse(out.chosen.begin(), out.chosen.end());
  return out;
}

}  // namespace erpd::core
