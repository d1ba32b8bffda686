// Golden end-to-end regression tests (ctest label: fault).
//
// GoldenScenario runs the default intersection scenario for 100 ticks (10 s
// at 10 Hz) at seed 42 with the Ours method and no faults, and asserts that
// the exact per-frame dissemination decision list and the simulated-metrics
// fingerprint match the committed snapshot in
// tests/golden/intersection_seed42.golden.
//
// RegistryGolden pins every counter and histogram sample count a run books
// (not host-time sums, not pool.* gauges) for the same clean run and for one
// fault case that drives every fate counter nonzero
// (tests/golden/registry_*.golden).
//
// When behavior changes intentionally, regenerate the snapshots with
//   ./test_golden_scenario --update-golden
// (or ERPD_UPDATE_GOLDEN=1) and commit the diff — the point is that such a
// change is visible in review, never silent.
//
// Relevance values are serialized as hexfloats, so the comparison is
// bit-exact, not round-tripped through decimal.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "edge/metrics_io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "scenario_harness.hpp"

namespace erpd {
namespace {

bool g_update_golden = false;

std::string golden_path(const std::string& name) {
  return std::string(ERPD_TESTS_DIR) + "/golden/" + name + ".golden";
}

/// Compare `got` with the committed snapshot `name`, or rewrite the snapshot
/// under --update-golden. A mismatch prints a line diff.
void expect_golden(const std::string& name, const std::string& got) {
  const std::string path = golden_path(name);
  if (g_update_golden || std::getenv("ERPD_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::write_file(path, got)) << "cannot write " << path;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f) << "missing golden snapshot " << path
                 << " — run with --update-golden to create it";
  std::stringstream want;
  want << f.rdbuf();
  EXPECT_EQ(want.str(), got)
      << name << " changed; if intentional, regenerate with --update-golden.";
}

/// Run the pinned scenario and serialize decisions + fingerprint.
std::string render_snapshot() {
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  harness::FaultCase clean;  // all-zero FaultConfig, no degradation policy
  edge::RunnerConfig rc = harness::make_fault_runner(edge::Method::kOurs, clean);
  rc.duration = 10.0;  // 100 ticks at the default 0.1 s frame interval

  std::ostringstream out;
  std::uint64_t decision_hash = 0x6f1d;
  rc.on_frame = [&](const edge::FrameTrace& tr) {
    for (const net::Dissemination& d : tr.edge.selected) {
      char line[160];
      std::snprintf(line, sizeof line, "decision %d to=%d track=%d about=%d "
                    "bytes=%zu rel=%a\n",
                    tr.frame, d.to, d.track_id, d.about, d.bytes, d.relevance);
      out << line;
      decision_hash = harness::fold_decision(decision_hash, tr.frame, d);
    }
  };

  edge::SystemRunner runner(rc);
  const edge::MethodMetrics m = runner.run(sc);

  char tail[192];
  std::snprintf(tail, sizeof tail,
                "decisions_fingerprint 0x%016llx\n"
                "metrics_fingerprint 0x%016llx\n",
                static_cast<unsigned long long>(decision_hash),
                static_cast<unsigned long long>(
                    edge::behavior_fingerprint(m)));
  out << tail;
  return out.str();
}

TEST(GoldenScenario, MatchesCommittedSnapshot) {
  expect_golden("intersection_seed42", render_snapshot());
}

/// Run `rc` for 10 s on the seed-42 intersection and serialize its registry:
/// one line per counter value and per histogram sample count, by name.
std::string render_registry(edge::RunnerConfig rc) {
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  obs::MetricsRegistry reg;
  rc.metrics = &reg;
  rc.duration = 10.0;
  edge::SystemRunner(rc).run(sc);
  std::ostringstream out;
  for (const auto& [name, v] : reg.counters()) {
    out << "counter " << name << ' ' << v << '\n';
  }
  for (const auto& [name, h] : reg.histograms()) {
    out << "histogram " << name << " count " << h->count() << '\n';
  }
  return out.str();
}

TEST(RegistryGolden, CleanOurs) {
  expect_golden("registry_ours_seed42",
                render_registry(harness::make_fault_runner(
                    edge::Method::kOurs, harness::FaultCase{})));
}

TEST(RegistryGolden, EveryFateBooked) {
  // Loss, corruption, a downlink deadline, ingest shedding, redundancy and
  // service mode with a drain cap: every fate counter ends nonzero.
  harness::FaultCase fc;
  fc.fault.seed = 0xb00c;
  fc.fault.uplink_loss = fc.fault.downlink_loss = 0.10;
  fc.fault.uplink_corruption = fc.fault.downlink_corruption = 0.10;
  fc.fault.jitter_mean = 0.02;
  fc.fault.downlink_deadline = 0.050;
  fc.harden_ingest = true;
  fc.ingest_point_budget = 600;
  fc.redundancy = true;
  fc.service = true;
  fc.service_budget_us = 60;
  fc.staleness_decay = 0.10;
  fc.max_coast_frames = 4;
  edge::RunnerConfig rc = harness::make_fault_runner(edge::Method::kOurs, fc);
  rc.service.queue_drain_max = 4;
  expect_golden("registry_fault_seed42", render_registry(rc));
}

}  // namespace
}  // namespace erpd

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      erpd::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
