#pragma once
// Exact 0/1 knapsack reference for the dissemination decision (paper
// Definition 1). No src/ code calls it: the greedy of Algorithm 1 is what
// runs; this solver is the yardstick test_dissemination and
// bench/ablation_knapsack measure the greedy against.

#include <cstddef>
#include <vector>

#include "core/dissemination.hpp"

namespace erpd::core {

/// Exact 0/1 knapsack via dynamic programming over quantized byte budget.
/// `resolution_bytes` trades accuracy for speed (default 256 B buckets);
/// weights are rounded up, so the selection always fits the true budget.
Selection optimal_dissemination(const std::vector<Candidate>& candidates,
                                std::size_t budget_bytes,
                                std::size_t resolution_bytes = 256);

}  // namespace erpd::core
