// Fault + overload soak harness for the service-mode edge pipeline
// (DESIGN.md §17).
//
// Runs the closed loop as a long-lived service: back-to-back scenario
// episodes (successive traffic waves through the same intersection shape,
// each with a fresh per-episode seed) under the combined stress the fault
// matrix applies one axis at a time — 10% uplink loss, latency jitter, a
// mid-episode burst outage, 5% payload corruption plus one Byzantine
// background vehicle, the hardened-ingest point budget, the redundancy
// uplink, and the deadline-budget admission controller, all at once.
//
// Gates (all must hold for exit code 0; the JSON report carries the raw
// series so tools/check_bench.py --soak re-checks them in CI):
//   - zero contract violations across every episode;
//   - behavior fingerprints bit-identical at 1/2/8 workers and under a
//     det-hash shuffle (episode 0 is re-run as the sweep probe);
//   - flat memory: mean resident set of the back half of the run within
//     15% of the front half (leaks grow without bound; caches plateau);
//   - stable stage.e2e p99: back-half mean within 3x of the front half
//     (the span folds host-measured module times, so the band is generous
//     against machine noise while still catching monotone degradation).
//
// Usage: soak [--quick] [--sim-seconds=N] [--seed=N] [--out=FILE]
//   --quick          target 600 simulated seconds (CI smoke; ~1 min wall)
//   --sim-seconds=N  explicit target (default 7200 — two simulated hours)
//   --seed=N         base seed for the episode sequence (default 42)
//   --out=FILE       JSON report path (default SOAK_report.json in the CWD)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "bench_util.hpp"
#include "core/check.hpp"
#include "core/det_hash.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "edge/system_runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"

using namespace erpd;

namespace {

constexpr double kEpisodeSeconds = 14.0;

/// Resident set size in kilobytes (0 where /proc is unavailable).
long resident_kb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
#else
  return 0;
#endif
}

/// Same intersection shape the fault matrix soaks (coarse LiDAR keeps the
/// per-episode wall cost around a second).
sim::ScenarioConfig soak_intersection(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.speed_kmh = 28.0;
  cfg.total_vehicles = 12;
  cfg.pedestrians = 3;
  cfg.connected_fraction = 0.5;
  cfg.seed = seed;
  cfg.world.lidar.channels = 16;
  cfg.world.lidar.azimuth_step_deg = 1.0;
  return cfg;
}

/// Every stress axis the fault matrix exercises singly, combined.
edge::RunnerConfig soak_runner(std::uint64_t fault_seed) {
  net::WirelessConfig wireless;
  wireless.uplink_mbps = 16.0;
  wireless.downlink_mbps = 32.0;
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs,
                                                   wireless);
  rc.duration = kEpisodeSeconds;
  rc.fault.seed = fault_seed;
  rc.fault.uplink_loss = 0.10;
  rc.fault.jitter_mean = 0.010;
  rc.fault.downlink_deadline = 0.060;
  rc.fault.outages.push_back({4.0, 1.5});
  rc.fault.uplink_corruption = 0.05;
  rc.edge.staleness_decay = 0.10;
  rc.edge.tracker.max_coast_frames = 8;
  rc.edge.ingest.enabled = true;
  rc.edge.ingest.point_budget_per_frame = 600;
  rc.redundancy.enabled = true;
  rc.service.enabled = true;
  rc.service.decode_merge_budget_us = 100;
  return rc;
}

struct EpisodeResult {
  std::uint64_t fingerprint{0};
  double e2e_p50_ms{0.0};
  double e2e_p99_ms{0.0};
  double pool_jobs{0.0};
  long rss_kb{0};
  edge::MethodMetrics metrics{};
  bool violated{false};
  std::string what;
};

EpisodeResult run_episode(std::uint64_t base_seed, std::uint64_t episode) {
  const std::uint64_t seed = core::seed_mix(base_seed, episode);
  sim::Scenario sc = sim::make_unprotected_left_turn(soak_intersection(seed));
  edge::RunnerConfig rc = soak_runner(core::seed_mix(seed, 0xfaull));

  // One Byzantine connected background car per episode (scripted vehicles
  // are created first, so the reverse walk lands on background traffic).
  const auto& vehicles = sc.world.vehicles();
  for (auto it = vehicles.rbegin(); it != vehicles.rend(); ++it) {
    if (!it->params().connected || it->params().parked) continue;
    if (it->id() == sc.ego || it->id() == sc.threat ||
        it->id() == sc.ego_follower) {
      continue;
    }
    rc.fault.byzantine.push_back({it->id(), 2.0});
    break;
  }

  obs::MetricsRegistry registry;
  rc.metrics = &registry;

  EpisodeResult r;
  try {
    edge::SystemRunner runner(rc);
    r.metrics = runner.run(sc);
    r.fingerprint = edge::behavior_fingerprint(r.metrics);
  } catch (const erpd::ContractViolation& e) {
    r.violated = true;
    r.what = e.what();
  } catch (const std::exception& e) {
    r.violated = true;
    r.what = e.what();
  }
  // Histogram samples are integer nanoseconds (record_seconds).
  const obs::Histogram& e2e = registry.histogram("stage.e2e");
  r.e2e_p50_ms = e2e.quantile(0.50) / 1e6;
  r.e2e_p99_ms = e2e.quantile(0.99) / 1e6;
  // Sum both job gauges so the flatness gate is meaningful on single-core
  // hosts too, where every parallel_for degenerates to a serial job.
  r.pool_jobs = registry.gauge("pool.jobs").value() +
                registry.gauge("pool.serial_jobs").value();
  r.rss_kb = resident_kb();
  return r;
}

double mean_of_range(const std::vector<double>& v, std::size_t lo,
                     std::size_t hi) {
  if (hi <= lo) return 0.0;
  double s = 0.0;
  for (std::size_t i = lo; i < hi; ++i) s += v[i];
  return s / static_cast<double>(hi - lo);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  double sim_seconds = 7200.0;
  bool sim_seconds_set = false;
  std::uint64_t base_seed = 42;
  std::string out_path = "SOAK_report.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--sim-seconds=", 14) == 0) {
      sim_seconds = std::atof(argv[i] + 14);
      sim_seconds_set = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      base_seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--sim-seconds=N] [--seed=N] "
                   "[--out=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (quick && !sim_seconds_set) sim_seconds = 600.0;

  const std::size_t episodes = static_cast<std::size_t>(
      std::ceil(sim_seconds / kEpisodeSeconds));

  core::set_thread_count(0);
  const std::size_t auto_threads = core::thread_count();
  std::printf("soak - always-on service harness (DESIGN.md §17)\n");
  std::printf("%zu episodes x %.0f s = %.0f simulated seconds, seed %" PRIu64
              ", %zu workers\n\n",
              episodes, kEpisodeSeconds, episodes * kEpisodeSeconds, base_seed,
              auto_threads);

  // ---- Worker sweep: episode 0 must be bit-identical at 1/2/8 workers and
  // under a det-hash container shuffle.
  bool sweep_ok = true;
  std::uint64_t sweep_ref = 0;
  std::vector<std::pair<std::string, std::uint64_t>> sweep_rows;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    core::set_thread_count(threads);
    const EpisodeResult r = run_episode(base_seed, 0);
    if (r.violated) {
      std::fprintf(stderr, "soak: contract violation in sweep: %s\n",
                   r.what.c_str());
      sweep_ok = false;
    }
    char label[32];
    std::snprintf(label, sizeof label, "threads_%zu", threads);
    sweep_rows.emplace_back(label, r.fingerprint);
    if (sweep_ref == 0) {
      sweep_ref = r.fingerprint;
    } else if (r.fingerprint != sweep_ref) {
      sweep_ok = false;
    }
  }
  core::set_thread_count(2);
  core::set_det_hash_seed(core::mix64(0x9e3779b97f4a7c15ull));
  {
    const EpisodeResult r = run_episode(base_seed, 0);
    sweep_rows.emplace_back("hash_shuffle", r.fingerprint);
    if (r.violated || r.fingerprint != sweep_ref) sweep_ok = false;
  }
  core::set_det_hash_seed(0);
  core::set_thread_count(0);
  std::printf("worker sweep (1/2/8 + det-hash shuffle): %s\n",
              sweep_ok ? "bit-identical" : "DIVERGED");

  // ---- The soak proper.
  std::size_t violations = 0;
  std::vector<double> p99_ms, p50_ms, rss_kb, pool_jobs;
  std::vector<EpisodeResult> results;
  results.reserve(episodes);
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    EpisodeResult r = run_episode(base_seed, ep);
    if (r.violated) {
      ++violations;
      std::fprintf(stderr, "soak: episode %zu violated a contract: %s\n", ep,
                   r.what.c_str());
    }
    p99_ms.push_back(r.e2e_p99_ms);
    p50_ms.push_back(r.e2e_p50_ms);
    rss_kb.push_back(static_cast<double>(r.rss_kb));
    pool_jobs.push_back(r.pool_jobs);
    if ((ep + 1) % 10 == 0 || ep + 1 == episodes) {
      std::printf("  episode %3zu/%zu  e2e p99 %6.1f ms  rss %6.0f MB  "
                  "fates a/d/s %d/%d/%d\n",
                  ep + 1, episodes, r.e2e_p99_ms, rss_kb.back() / 1024.0,
                  r.metrics.service_admitted_objects,
                  r.metrics.service_deferred_objects,
                  r.metrics.service_shed_objects);
    }
    results.push_back(std::move(r));
  }

  // ---- Gates. Front/back halves skip nothing: the first episodes warm the
  // allocator, which is exactly the plateau-vs-growth question the 15% band
  // answers (a real leak compounds across hundreds of episodes).
  const std::size_t half = episodes / 2;
  const double rss_front = mean_of_range(rss_kb, 0, half);
  const double rss_back = mean_of_range(rss_kb, half, episodes);
  const bool rss_flat = rss_front <= 0.0 || rss_back <= rss_front * 1.15;

  const double p99_front = mean_of_range(p99_ms, 0, half);
  const double p99_back = mean_of_range(p99_ms, half, episodes);
  const bool p99_stable = p99_front <= 0.0 || p99_back <= p99_front * 3.0;

  const double jobs_front = mean_of_range(pool_jobs, 0, half);
  const double jobs_back = mean_of_range(pool_jobs, half, episodes);
  const bool pool_flat = jobs_front <= 0.0 || jobs_back <= jobs_front * 1.5;

  const bool ok = violations == 0 && sweep_ok && rss_flat && p99_stable &&
                  pool_flat;

  std::printf("\nviolations %zu | rss %6.0f -> %6.0f MB (%s) | "
              "e2e p99 %5.1f -> %5.1f ms (%s) | pool.jobs %.0f -> %.0f (%s)\n",
              violations, rss_front / 1024.0, rss_back / 1024.0,
              rss_flat ? "flat" : "GROWING", p99_front, p99_back,
              p99_stable ? "stable" : "DEGRADING", jobs_front, jobs_back,
              pool_flat ? "flat" : "GROWING");

  // ---- Report.
  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "soak");
  w.kv("quick", quick);
  w.kv("seed", base_seed);
  w.kv("episode_seconds", kEpisodeSeconds);
  w.kv("episodes", static_cast<std::uint64_t>(episodes));
  w.kv("sim_seconds", episodes * kEpisodeSeconds);
  w.kv("threads", static_cast<std::uint64_t>(auto_threads));
  w.kv("violations", static_cast<std::uint64_t>(violations));
  w.kv("worker_sweep_ok", sweep_ok);
  w.key("worker_sweep").begin_object();
  for (const auto& [label, fp] : sweep_rows) w.kv(label, bench::hex64(fp));
  w.end_object();
  w.key("gates").begin_object();
  w.kv("rss_flat", rss_flat);
  w.kv("p99_stable", p99_stable);
  w.kv("pool_flat", pool_flat);
  w.kv("rss_front_kb", rss_front);
  w.kv("rss_back_kb", rss_back);
  w.kv("e2e_p99_front_ms", p99_front);
  w.kv("e2e_p99_back_ms", p99_back);
  w.kv("pool_jobs_front", jobs_front);
  w.kv("pool_jobs_back", jobs_back);
  w.end_object();
  w.key("episodes_detail").begin_array();
  for (std::size_t ep = 0; ep < results.size(); ++ep) {
    const EpisodeResult& r = results[ep];
    w.begin_object();
    w.kv("episode", static_cast<std::uint64_t>(ep));
    w.kv("behavior_fingerprint", bench::hex64(r.fingerprint));
    w.kv("e2e_p50_ms", r.e2e_p50_ms);
    w.kv("e2e_p99_ms", r.e2e_p99_ms);
    w.kv("rss_kb", static_cast<std::uint64_t>(
                       r.rss_kb > 0 ? static_cast<std::uint64_t>(r.rss_kb)
                                    : 0));
    w.kv("pool_jobs", r.pool_jobs);
    w.kv("service_arrived", static_cast<std::uint64_t>(
                                r.metrics.service_arrived_objects));
    w.kv("service_admitted", static_cast<std::uint64_t>(
                                 r.metrics.service_admitted_objects));
    w.kv("service_deferred", static_cast<std::uint64_t>(
                                 r.metrics.service_deferred_objects));
    w.kv("service_shed", static_cast<std::uint64_t>(
                             r.metrics.service_shed_objects));
    w.kv("service_parked_residual", static_cast<std::uint64_t>(
                                        r.metrics.service_parked_residual));
    w.kv("ingest_quarantined", static_cast<std::uint64_t>(
                                   r.metrics.ingest_quarantined_vehicles));
    w.kv("violated", r.violated);
    w.end_object();
  }
  w.end_array();
  w.kv("ok", ok);
  w.end_object();
  if (!obs::write_file(out_path, w.str() + "\n")) {
    std::fprintf(stderr, "soak: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!ok) {
    std::fprintf(stderr, "soak: FAIL\n");
    return 1;
  }
  std::printf("soak: OK\n");
  return 0;
}
