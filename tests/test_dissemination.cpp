#include <gtest/gtest.h>

#include "core/check.hpp"

#include <algorithm>
#include <random>

#include "core/dissemination.hpp"
#include "knapsack_oracle.hpp"

namespace erpd::core {
namespace {

Candidate cand(int track, sim::AgentId to, double rel, std::size_t bytes) {
  return {track, to, rel, bytes, sim::kInvalidAgent};
}

TEST(Greedy, PicksBestAwardFirst) {
  // Item B has a better relevance/size award despite lower relevance.
  std::vector<Candidate> c = {
      cand(1, 10, 0.9, 9000),  // award 1e-4
      cand(2, 11, 0.5, 1000),  // award 5e-4
  };
  const Selection s = greedy_dissemination(c, 1500);
  ASSERT_EQ(s.chosen.size(), 1u);
  EXPECT_EQ(s.chosen[0].track_id, 2);
}

TEST(Greedy, FillsBudget) {
  std::vector<Candidate> c = {
      cand(1, 10, 0.5, 400),
      cand(2, 10, 0.5, 400),
      cand(3, 10, 0.5, 400),
  };
  const Selection s = greedy_dissemination(c, 900);
  EXPECT_EQ(s.chosen.size(), 2u);
  EXPECT_EQ(s.total_bytes, 800u);
  EXPECT_DOUBLE_EQ(s.total_relevance, 1.0);
}

TEST(Greedy, SkipsUnfittableButContinues) {
  std::vector<Candidate> c = {
      cand(1, 10, 0.9, 1000),  // best award, taken
      cand(2, 10, 0.8, 5000),  // does not fit, skipped
      cand(3, 10, 0.1, 500),   // still fits
  };
  const Selection s = greedy_dissemination(c, 1600);
  ASSERT_EQ(s.chosen.size(), 2u);
  EXPECT_EQ(s.chosen[0].track_id, 1);
  EXPECT_EQ(s.chosen[1].track_id, 3);
}

TEST(Greedy, NeverSendsZeroRelevance) {
  std::vector<Candidate> c = {
      cand(1, 10, 0.0, 100),
      cand(2, 11, 0.0, 100),
  };
  const Selection s = greedy_dissemination(c, 10000);
  EXPECT_TRUE(s.chosen.empty());
}

TEST(Greedy, EmptyInput) {
  const Selection s = greedy_dissemination({}, 1000);
  EXPECT_TRUE(s.chosen.empty());
  EXPECT_EQ(s.total_bytes, 0u);
}

TEST(Greedy, RespectsBudgetExactly) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> rel(0.01, 1.0);
  std::uniform_int_distribution<std::size_t> bytes(100, 5000);
  std::vector<Candidate> c;
  for (int i = 0; i < 200; ++i) {
    c.push_back(cand(i, i % 10, rel(rng), bytes(rng)));
  }
  for (std::size_t budget : {0u, 1000u, 50000u, 200000u}) {
    const Selection s = greedy_dissemination(c, budget);
    EXPECT_LE(s.total_bytes, budget);
  }
}

TEST(Optimal, MatchesBruteForceSmall) {
  // 6 items vs exhaustive search.
  const std::vector<Candidate> c = {
      cand(0, 1, 0.6, 300), cand(1, 1, 0.5, 250), cand(2, 1, 0.9, 600),
      cand(3, 1, 0.2, 100), cand(4, 1, 0.8, 450), cand(5, 1, 0.4, 200),
  };
  const std::size_t budget = 1000;
  double best = 0.0;
  for (int mask = 0; mask < 64; ++mask) {
    std::size_t w = 0;
    double v = 0.0;
    for (int i = 0; i < 6; ++i) {
      if (mask & (1 << i)) {
        w += c[static_cast<std::size_t>(i)].bytes;
        v += c[static_cast<std::size_t>(i)].relevance;
      }
    }
    if (w <= budget) best = std::max(best, v);
  }
  const Selection s = optimal_dissemination(c, budget, 1);
  EXPECT_NEAR(s.total_relevance, best, 1e-9);
  EXPECT_LE(s.total_bytes, budget);
}

TEST(Optimal, GreedyNeverBeatsOptimal) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> rel(0.01, 1.0);
  std::uniform_int_distribution<std::size_t> bytes(200, 4000);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Candidate> c;
    for (int i = 0; i < 40; ++i) {
      c.push_back(cand(i, 1, rel(rng), bytes(rng)));
    }
    const std::size_t budget = 20000;
    const Selection g = greedy_dissemination(c, budget);
    const Selection o = optimal_dissemination(c, budget, 1);
    EXPECT_LE(g.total_relevance, o.total_relevance + 1e-9)
        << "trial " << trial;
    EXPECT_LE(o.total_bytes, budget);
  }
}

TEST(Optimal, GreedyIsNearOptimal) {
  // The R/s greedy should typically land within a few percent of optimal
  // for realistic candidate mixes (paper justification for Algorithm 1).
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> rel(0.01, 1.0);
  std::uniform_int_distribution<std::size_t> bytes(500, 3000);
  double worst_ratio = 1.0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Candidate> c;
    for (int i = 0; i < 60; ++i) {
      c.push_back(cand(i, 1, rel(rng), bytes(rng)));
    }
    const Selection g = greedy_dissemination(c, 30000);
    const Selection o = optimal_dissemination(c, 30000, 1);
    if (o.total_relevance > 0.0) {
      worst_ratio = std::min(worst_ratio, g.total_relevance / o.total_relevance);
    }
  }
  EXPECT_GT(worst_ratio, 0.9);
}

// Exact oracle for Algorithm 1 (no byte quantization, unlike
// optimal_dissemination). Items taken in award order up to the first one
// that does not fit are all in the greedy selection, so the LP relaxation
// bounds OPT by greedy + that item's relevance, hence by greedy + the largest
// relevance greedy rejected.
TEST(GreedyOracle, WithinOneRejectedItemOfExactOptimum) {
  std::mt19937_64 rng(16);
  std::uniform_int_distribution<int> count(0, 10);
  std::uniform_int_distribution<std::size_t> budget_of(0, 4000);
  std::uniform_int_distribution<int> kind(0, 5);
  std::uniform_real_distribution<double> rel(0.01, 1.0);
  std::uniform_int_distribution<std::size_t> bytes(1, 1500);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::size_t budget = budget_of(rng);
    std::vector<Candidate> c;
    const int n = count(rng);
    for (int i = 0; i < n; ++i) {
      Candidate x = cand(i, 1, rel(rng), bytes(rng));
      switch (kind(rng)) {
        case 0: x.bytes = 0; break;
        case 1: x.relevance = 0.0; break;
        case 2: x.bytes = budget + bytes(rng); break;  // over budget alone
        default: break;
      }
      c.push_back(x);
    }

    double opt = 0.0;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      std::size_t w = 0;
      double v = 0.0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          w += c[static_cast<std::size_t>(i)].bytes;
          v += c[static_cast<std::size_t>(i)].relevance;
        }
      }
      if (w <= budget) opt = std::max(opt, v);
    }

    const Selection g = greedy_dissemination(c, budget);
    std::vector<bool> taken(c.size(), false);
    std::size_t bytes_taken = 0;
    for (const Candidate& x : g.chosen) {
      taken[static_cast<std::size_t>(x.track_id)] = true;
      bytes_taken += x.bytes;
    }
    double max_rejected = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!taken[i]) max_rejected = std::max(max_rejected, c[i].relevance);
    }
    EXPECT_EQ(g.total_bytes, bytes_taken) << "trial " << trial;
    EXPECT_LE(g.total_bytes, budget) << "trial " << trial;
    EXPECT_LE(g.total_relevance, opt + 1e-9) << "trial " << trial;
    EXPECT_LE(opt, g.total_relevance + max_rejected + 1e-9)
        << "trial " << trial;
  }
}

TEST(Optimal, ZeroResolutionThrows) {
  EXPECT_THROW(optimal_dissemination({}, 100, 0), erpd::ContractViolation);
}

TEST(RoundRobin, RotationContinuesAcrossFrames) {
  const std::vector<Candidate> c = {
      cand(0, 1, 0.0, 400), cand(1, 1, 0.0, 400), cand(2, 1, 0.0, 400),
      cand(3, 1, 0.0, 400),
  };
  std::size_t cursor = 0;
  // Budget fits 2 items per frame.
  const Selection f1 = round_robin_dissemination(c, 900, cursor);
  ASSERT_EQ(f1.chosen.size(), 2u);
  EXPECT_EQ(f1.chosen[0].track_id, 0);
  EXPECT_EQ(f1.chosen[1].track_id, 1);
  const Selection f2 = round_robin_dissemination(c, 900, cursor);
  ASSERT_EQ(f2.chosen.size(), 2u);
  EXPECT_EQ(f2.chosen[0].track_id, 2);
  EXPECT_EQ(f2.chosen[1].track_id, 3);
  const Selection f3 = round_robin_dissemination(c, 900, cursor);
  EXPECT_EQ(f3.chosen[0].track_id, 0);  // wrapped around
}

TEST(RoundRobin, IgnoresRelevance) {
  // RR sends low-relevance items that greedy would never pick.
  const std::vector<Candidate> c = {
      cand(0, 1, 0.0, 400),
      cand(1, 1, 0.99, 400),
  };
  std::size_t cursor = 0;
  const Selection s = round_robin_dissemination(c, 450, cursor);
  ASSERT_EQ(s.chosen.size(), 1u);
  EXPECT_EQ(s.chosen[0].track_id, 0);
}

TEST(RoundRobin, WholeListFitsResetsCursor) {
  const std::vector<Candidate> c = {cand(0, 1, 0.0, 100), cand(1, 1, 0.0, 100)};
  std::size_t cursor = 0;
  const Selection s = round_robin_dissemination(c, 10000, cursor);
  EXPECT_EQ(s.chosen.size(), 2u);
  EXPECT_EQ(cursor, 0u);
}

TEST(RoundRobin, EmptyInput) {
  std::size_t cursor = 5;
  const Selection s = round_robin_dissemination({}, 1000, cursor);
  EXPECT_TRUE(s.chosen.empty());
}

TEST(Greedy, ZeroByteCandidatesAlwaysAdmittedFirst) {
  // Zero-byte positive-relevance candidates are free relevance: they sort
  // strictly ahead of every sized candidate (the old finite pseudo-award
  // R*1e12 could be outranked) and are admitted even with no budget at all.
  std::vector<Candidate> c = {
      cand(1, 10, 0.9, 1000),
      cand(2, 11, 1e-9, 0),
      cand(3, 12, 0.5, 0),
  };
  const Selection s = greedy_dissemination(c, 0);
  ASSERT_EQ(s.chosen.size(), 2u);
  // Free candidates rank among themselves by relevance.
  EXPECT_EQ(s.chosen[0].track_id, 3);
  EXPECT_EQ(s.chosen[1].track_id, 2);
  EXPECT_EQ(s.total_bytes, 0u);
}

TEST(Greedy, ZeroByteZeroRelevanceStillExcluded) {
  std::vector<Candidate> c = {cand(1, 10, 0.0, 0)};
  EXPECT_TRUE(greedy_dissemination(c, 100).chosen.empty());
}

TEST(RoundRobin, OversizedItemDoesNotStarveRotation) {
  // Regression: an item larger than the whole per-frame budget used to park
  // the cursor forever — every later frame returned an empty selection and
  // no vehicle received anything again. It must be skipped instead.
  const std::vector<Candidate> c = {
      cand(0, 1, 0.0, 400),
      cand(1, 1, 0.0, 5000),  // can never fit any frame's budget
      cand(2, 1, 0.0, 400),
  };
  std::size_t cursor = 1;  // parked exactly on the oversized item
  Selection s = round_robin_dissemination(c, 900, cursor);
  ASSERT_EQ(s.chosen.size(), 2u);
  EXPECT_EQ(s.chosen[0].track_id, 2);
  EXPECT_EQ(s.chosen[1].track_id, 0);
  // Recovery is permanent: every subsequent frame keeps delivering.
  for (int frame = 0; frame < 3; ++frame) {
    s = round_robin_dissemination(c, 900, cursor);
    EXPECT_EQ(s.chosen.size(), 2u) << "frame " << frame;
  }
}

TEST(RoundRobin, ItemExactlyAtBudgetStillDelivered) {
  // bytes == budget is deliverable, not oversized; the next item stalls the
  // rotation as before (it could fit a later, emptier frame).
  const std::vector<Candidate> c = {cand(0, 1, 0.0, 900),
                                    cand(1, 1, 0.0, 400)};
  std::size_t cursor = 0;
  const Selection s = round_robin_dissemination(c, 900, cursor);
  ASSERT_EQ(s.chosen.size(), 1u);
  EXPECT_EQ(s.chosen[0].track_id, 0);
  EXPECT_EQ(cursor, 1u);
}

TEST(RoundRobin, AllOversizedReturnsEmptyButRotates) {
  const std::vector<Candidate> c = {cand(0, 1, 0.0, 5000),
                                    cand(1, 1, 0.0, 6000)};
  std::size_t cursor = 0;
  const Selection s = round_robin_dissemination(c, 900, cursor);
  EXPECT_TRUE(s.chosen.empty());
  EXPECT_EQ(cursor, 0u);  // full rotation completed, nothing deliverable
}

TEST(Broadcast, SendsEverything) {
  const std::vector<Candidate> c = {
      cand(0, 1, 0.1, 1000), cand(1, 2, 0.0, 2000), cand(2, 3, 0.9, 3000)};
  const Selection s = broadcast_dissemination(c);
  EXPECT_EQ(s.chosen.size(), 3u);
  EXPECT_EQ(s.total_bytes, 6000u);
  EXPECT_NEAR(s.total_relevance, 1.0, 1e-12);
}

}  // namespace
}  // namespace erpd::core
