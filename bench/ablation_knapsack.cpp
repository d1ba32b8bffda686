// Ablation (§III-B): greedy Algorithm 1 vs exact DP knapsack — solution
// quality and decision latency. The paper's claim is that the greedy makes
// dissemination decisions in ~1 ms; the DP shows how much relevance the
// greedy leaves on the table (typically <2%).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "core/dissemination.hpp"
#include "knapsack_oracle.hpp"

namespace {

using namespace erpd;

std::vector<core::Candidate> random_candidates(int n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> rel(0.01, 1.0);
  std::uniform_int_distribution<std::size_t> bytes(300, 4000);
  std::vector<core::Candidate> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back({i, i % 16, rel(rng), bytes(rng), sim::kInvalidAgent});
  }
  return out;
}

void quality_table() {
  std::printf("\nGreedy vs exact DP: delivered relevance (budget 40 KB)\n");
  std::printf("%12s %10s %10s %10s\n", "candidates", "greedy", "optimal",
              "ratio");
  std::mt19937_64 rng(9);
  for (int n : {20, 50, 100, 200, 400}) {
    const auto c = random_candidates(n, rng);
    const auto g = core::greedy_dissemination(c, 40000);
    const auto o = core::optimal_dissemination(c, 40000, 1);
    std::printf("%12d %10.3f %10.3f %9.1f%%\n", n, g.total_relevance,
                o.total_relevance,
                100.0 * g.total_relevance / std::max(o.total_relevance, 1e-9));
  }
  std::printf("\n");
}

void BM_Greedy(benchmark::State& state) {
  std::mt19937_64 rng(42);
  const auto c = random_candidates(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_dissemination(c, 40000));
  }
}
BENCHMARK(BM_Greedy)->Arg(50)->Arg(200)->Arg(800);

void BM_OptimalDp(benchmark::State& state) {
  std::mt19937_64 rng(42);
  const auto c = random_candidates(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimal_dissemination(c, 40000, 64));
  }
}
BENCHMARK(BM_OptimalDp)->Arg(50)->Arg(200)->Arg(800);

void BM_RoundRobin(benchmark::State& state) {
  std::mt19937_64 rng(42);
  const auto c = random_candidates(static_cast<int>(state.range(0)), rng);
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::round_robin_dissemination(c, 40000, cursor));
  }
}
BENCHMARK(BM_RoundRobin)->Arg(200);

}  // namespace

int main(int argc, char** argv) {
  quality_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
