// Determinism contract of the parallel pipeline: every parallel loop must
// produce bit-identical output for any ERPD_THREADS setting. These tests run
// the RNG-bearing LiDAR scan and a short closed-loop scenario at 1, 2, and 8
// workers and require exact equality. They run under TSan in CI, so they
// also double as a race detector for the pool itself.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "core/det_hash.hpp"
#include "core/thread_pool.hpp"
#include "edge/metrics_io.hpp"
#include "edge/system_runner.hpp"
#include "pointcloud/encoding.hpp"
#include "scenario_harness.hpp"
#include "sim/lidar.hpp"
#include "sim/scenario_gen.hpp"

namespace erpd {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

/// Restores the auto pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { core::set_thread_count(0); }
};

// ---------------------------------------------------------------------------
// LidarSensor::scan with range noise enabled.
// ---------------------------------------------------------------------------

sim::LidarScan scan_noisy(std::size_t threads) {
  core::set_thread_count(threads);
  sim::LidarConfig cfg;
  cfg.channels = 16;
  cfg.azimuth_step_deg = 1.0;
  cfg.noise_sigma = 0.05;  // exercises the per-azimuth RNG derivation
  sim::LidarSensor lidar(cfg);
  std::mt19937_64 rng(42);
  geom::Pose pose;
  pose.position = {{0.0, 0.0}, 1.8};
  const std::vector<sim::LidarTarget> targets = {
      {geom::Obb{{10.0, 0.0}, 0.3, 4.5, 1.9}, 0.0, 1.6, 1},
      {geom::Obb{{18.0, 6.0}, 0.0, 0.5, 0.5}, 0.0, 1.75, 2},
      {geom::Obb{{15.0, -8.0}, 0.0, 20.0, 4.0}, 0.0, 8.0, -5},
  };
  return lidar.scan(pose, targets, rng);
}

TEST(Determinism, LidarScanIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const sim::LidarScan ref = scan_noisy(1);
  ASSERT_GT(ref.cloud.size(), 0u);
  const pc::EncodedCloud ref_bytes = pc::encode(ref.cloud);

  for (const std::size_t t : kThreadCounts) {
    const sim::LidarScan got = scan_noisy(t);
    EXPECT_EQ(got.cloud.size(), ref.cloud.size()) << t << " threads";
    EXPECT_EQ(got.ground_points, ref.ground_points) << t << " threads";
    EXPECT_EQ(got.static_points, ref.static_points) << t << " threads";
    EXPECT_EQ(got.points_per_agent, ref.points_per_agent) << t << " threads";
    // Byte-exact cloud: same points in the same order, down to the noise.
    EXPECT_EQ(pc::encode(got.cloud).bytes, ref_bytes.bytes) << t << " threads";
  }
}

// ---------------------------------------------------------------------------
// Closed-loop scenario: the whole frame pipeline (parallel sensing fan-out,
// blob segmentation, dissemination) must yield identical behavioral metrics.
// ---------------------------------------------------------------------------

/// Behaviour fingerprint of a short closed-loop run.
std::uint64_t run_scenario(edge::Method method, std::size_t threads) {
  core::set_thread_count(threads);
  sim::ScenarioConfig cfg;
  cfg.speed_kmh = 30.0;
  cfg.total_vehicles = 10;
  cfg.pedestrians = 2;
  cfg.connected_fraction = 0.5;
  cfg.seed = 11;
  cfg.world.lidar.channels = 16;
  cfg.world.lidar.azimuth_step_deg = 1.0;
  cfg.world.lidar.noise_sigma = 0.03;  // noisy path must stay deterministic
  sim::Scenario sc = sim::make_unprotected_left_turn(cfg);

  edge::RunnerConfig rc = edge::make_runner_config(method);
  rc.duration = 2.0;
  edge::SystemRunner runner(rc);
  return edge::behavior_fingerprint(runner.run(sc));
}

TEST(Determinism, SystemRunnerOursIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const std::uint64_t ref = run_scenario(edge::Method::kOurs, 1);
  for (const std::size_t t : kThreadCounts) {
    EXPECT_EQ(run_scenario(edge::Method::kOurs, t), ref) << t << " threads";
  }
}

TEST(Determinism, SystemRunnerEmpIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // EMP uploads blobs, exercising the server-side parallel ground strip and
  // the collected-cluster segmentation.
  const std::uint64_t ref = run_scenario(edge::Method::kEmp, 1);
  for (const std::size_t t : kThreadCounts) {
    EXPECT_EQ(run_scenario(edge::Method::kEmp, t), ref) << t << " threads";
  }
}

// ---------------------------------------------------------------------------
// Fault injection: a fault config that can never fire must be a provable
// no-op, and an active fault schedule must replay bit-identically for any
// worker count (every drop/jitter decision is a pure function of seed +
// entity + frame, never of scheduling).
// ---------------------------------------------------------------------------

edge::MethodMetrics run_fault_case(const harness::FaultCase& fc,
                                   std::size_t threads) {
  core::set_thread_count(threads);
  // Short run keeps the 3-thread-count sweep affordable under TSan.
  return harness::run_case(edge::Method::kOurs, fc, /*duration=*/4.0).metrics;
}

TEST(Determinism, InertFaultConfigIsANoOp) {
  PoolGuard guard;
  core::set_thread_count(1);
  // The runner asks the channel every fate question whatever the config.
  // A config that engages every query path — a deadline, an outage window,
  // a disconnect schedule and a Byzantine sender — but can never fire must
  // fingerprint like the default config: asking may not perturb a single
  // simulated quantity. Redundancy is on so coverage feedback also crosses
  // the channel.
  const auto run = [](const net::FaultConfig& fault) {
    sim::Scenario sc = sim::make_unprotected_left_turn(
        harness::default_intersection(42));
    edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
    rc.duration = 4.0;
    rc.redundancy.enabled = true;
    rc.fault = fault;
    edge::SystemRunner runner(rc);
    return edge::behavior_fingerprint(runner.run(sc));
  };
  constexpr sim::AgentId kAbsent = 9999;  // no such agent in the scenario
  net::FaultConfig inert;
  inert.seed = 0xfa11;
  inert.downlink_deadline = 1e9;
  inert.outages.push_back({1.0, 0.0});
  inert.disconnects.push_back({kAbsent, 0.0, 10.0});
  inert.byzantine.push_back({kAbsent, 0.0});
  EXPECT_EQ(run(inert), run(net::FaultConfig{}));
}

TEST(Determinism, FaultMatrixIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  for (const harness::FaultCase& fc : harness::default_fault_matrix()) {
    const std::uint64_t ref = edge::behavior_fingerprint(run_fault_case(fc, 1));
    for (const std::size_t t : kThreadCounts) {
      EXPECT_EQ(edge::behavior_fingerprint(run_fault_case(fc, t)), ref)
          << fc.name << " @ " << t << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-hasher torture (detlint D1 companion): every unordered container
// that survives in the pipeline does so under an ERPD_ORDER_INSENSITIVE
// annotation claiming its iteration order cannot reach simulated output.
// This test *attacks* that claim: core::set_det_hash_seed scrambles the
// bucket layout of every DetHash-keyed container constructed afterwards
// (ERPD_DETLINT_SHUFFLE=<n> is the env-var route to the same switch), so if
// any annotated fold secretly depended on visitation order, the seed-42
// fingerprint would drift here.
// ---------------------------------------------------------------------------

/// Restores production hashing when a test exits.
struct HashSeedGuard {
  ~HashSeedGuard() { core::set_det_hash_seed(0); }
};

std::uint64_t seed42_fingerprint() {
  sim::Scenario sc = sim::make_unprotected_left_turn(
      harness::default_intersection(42));
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
  rc.duration = 4.0;
  edge::SystemRunner runner(rc);
  return edge::behavior_fingerprint(runner.run(sc));
}

TEST(Determinism, FingerprintImmuneToHashSeedShuffle) {
  PoolGuard pool_guard;
  HashSeedGuard hash_guard;
  core::set_thread_count(2);  // chunk merge path must be active

  core::set_det_hash_seed(0);
  const std::uint64_t ref = seed42_fingerprint();

  for (const std::uint64_t shuffle :
       {std::uint64_t{0x9e3779b97f4a7c15}, std::uint64_t{1},
        std::uint64_t{0xdeadbeefcafef00d}}) {
    core::set_det_hash_seed(core::mix64(shuffle));
    EXPECT_EQ(seed42_fingerprint(), ref)
        << "hash-order dependence leaked into simulated output (shuffle seed "
        << shuffle << ")";
  }
}

// Service mode runs the MPSC queue + deadline admission path, whose
// defer/shed decisions must also be pure functions of the upload stream —
// never of hash-bucket layout or worker schedule. Same attack, service on.
TEST(Determinism, ServiceModeFingerprintImmuneToHashSeedShuffle) {
  PoolGuard pool_guard;
  HashSeedGuard hash_guard;
  core::set_thread_count(2);

  const harness::FaultCase fc = [] {
    for (const harness::FaultCase& c : harness::default_fault_matrix()) {
      if (c.name == "overload-burst-outage") return c;
    }
    ADD_FAILURE() << "overload-burst-outage missing from the fault matrix";
    return harness::FaultCase{};
  }();

  core::set_det_hash_seed(0);
  const edge::MethodMetrics ref = run_fault_case(fc, 2);
  ASSERT_GT(ref.service_arrived_objects, 0);  // the service path engaged
  const std::uint64_t ref_fp = edge::behavior_fingerprint(ref);

  for (const std::uint64_t shuffle :
       {std::uint64_t{0x9e3779b97f4a7c15}, std::uint64_t{1},
        std::uint64_t{0xdeadbeefcafef00d}}) {
    core::set_det_hash_seed(core::mix64(shuffle));
    EXPECT_EQ(edge::behavior_fingerprint(run_fault_case(fc, 2)), ref_fp)
        << "service-mode hash-order dependence (shuffle seed " << shuffle
        << ")";
  }
}

// ---------------------------------------------------------------------------
// Generated scenarios (DESIGN.md §15): both stages of the generator pipeline
// must be deterministic — generate_scenario's serialized output is a pure
// function of the seed (no thread-count dependence), and the full closed
// loop over a generated world (deferred spawns, maneuver layer, crowds,
// dissemination) replays bit-identically at 1/2/8 workers and under the
// det-hash shuffle.
// ---------------------------------------------------------------------------

const std::uint64_t kGeneratedSeeds[] = {2, 9, 19};

std::uint64_t run_generated(std::uint64_t seed, std::size_t threads,
                            std::string* spec_text = nullptr) {
  core::set_thread_count(threads);
  const sim::ScenarioSpec spec = sim::generate_scenario(sim::GenConfig{}, seed);
  if (spec_text != nullptr) *spec_text = sim::emit_spec(spec);
  sim::Scenario sc = sim::build_scenario(spec, sim::search_world_config());
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
  // Short horizon keeps the 3-seed x 3-thread-count sweep affordable under
  // TSan; the committed anchors cover full-duration replays.
  rc.duration = 4.0;
  edge::SystemRunner runner(rc);
  return edge::behavior_fingerprint(runner.run(sc));
}

TEST(Determinism, GeneratedScenariosIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  for (const std::uint64_t seed : kGeneratedSeeds) {
    std::string ref_text;
    const std::uint64_t ref = run_generated(seed, 1, &ref_text);
    ASSERT_FALSE(ref_text.empty());
    for (const std::size_t t : kThreadCounts) {
      std::string text;
      const std::uint64_t got = run_generated(seed, t, &text);
      EXPECT_EQ(text, ref_text) << "seed " << seed << " @ " << t << " threads";
      EXPECT_EQ(got, ref) << "seed " << seed << " @ " << t << " threads";
    }
  }
}

TEST(Determinism, GeneratedScenarioImmuneToHashSeedShuffle) {
  PoolGuard pool_guard;
  HashSeedGuard hash_guard;
  core::set_thread_count(2);

  core::set_det_hash_seed(0);
  const std::uint64_t ref = run_generated(19, 2);

  for (const std::uint64_t shuffle :
       {std::uint64_t{0x9e3779b97f4a7c15}, std::uint64_t{1}}) {
    core::set_det_hash_seed(core::mix64(shuffle));
    EXPECT_EQ(run_generated(19, 2), ref)
        << "generated-scenario replay drifted under hash shuffle (seed "
        << shuffle << ")";
  }
}

}  // namespace
}  // namespace erpd
