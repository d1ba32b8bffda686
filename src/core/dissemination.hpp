#pragma once
// Relevance-aware perception dissemination (paper §III-B, Definition 1).
//
// Given candidate (object, vehicle) pairs with relevance R_ij and object
// data size s_i, choose which data to disseminate to maximize total
// relevance subject to the downlink byte budget B. This is a 0/1 knapsack;
// the paper's Algorithm 1 is the classic greedy on the relevance/size award
// R_ij / s_i. The EMP Round-Robin and Unlimited broadcast baselines are
// provided for the evaluation; the exact dynamic-programming solver the
// greedy is judged against lives with the tests (tests/knapsack_oracle.hpp).

#include <cstddef>
#include <vector>

#include "sim/types.hpp"

namespace erpd::core {

/// One candidate dissemination (object o_i to vehicle j).
struct Candidate {
  int track_id{-1};
  sim::AgentId to{sim::kInvalidAgent};
  double relevance{0.0};
  std::size_t bytes{0};
  /// Ground-truth agent behind the track (harness feedback only).
  sim::AgentId about{sim::kInvalidAgent};
};

struct Selection {
  std::vector<Candidate> chosen;
  std::size_t total_bytes{0};
  double total_relevance{0.0};
};

/// Algorithm 1: greedily pick the candidate maximizing R_ij / s_i until the
/// budget is exhausted. Zero-relevance candidates are never sent; zero-byte
/// candidates with positive relevance cost nothing and are always admitted,
/// ahead of every sized candidate. (We only add items that still fit, the
/// standard fix to the greedy's last step.)
Selection greedy_dissemination(std::vector<Candidate> candidates,
                               std::size_t budget_bytes);

/// EMP baseline: Round-Robin — send every object to every vehicle in a fixed
/// rotation, irrespective of relevance, as much as the budget allows each
/// frame. `cursor` persists across frames so the rotation continues where it
/// stopped. Items that could fit a later (emptier) frame block the rotation
/// at the cursor; items larger than the whole per-frame budget can never be
/// delivered and are skipped so they cannot starve the rotation.
Selection round_robin_dissemination(const std::vector<Candidate>& candidates,
                                    std::size_t budget_bytes,
                                    std::size_t& cursor);

/// Unlimited baseline: everything to everyone; reports the bytes that an
/// uncapped downlink would carry.
Selection broadcast_dissemination(const std::vector<Candidate>& candidates);

}  // namespace erpd::core
