// Perf harness for the parallel frame pipeline.
//
// Runs the closed-loop system (kOurs: per-vehicle extraction + object
// uploads; kEmp: blob uploads exercising the server-side segmentation path)
// with the global pool at its auto size and again pinned to one worker, and
// emits machine-readable BENCH_pipeline.json with the run registry (every
// stage.* histogram and counter), aggregate points/sec, and the
// parallel-vs-serial speedup. It also cross-checks the determinism contract:
// behavioral metrics must be exactly equal at every thread count.
//
// Usage: perf_pipeline [--quick] [--out=FILE]
//   --quick     fewer frames + one seed (CI smoke; seconds, not minutes)
//   --out=FILE  output path (default BENCH_pipeline.json in the CWD)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"

using namespace erpd;

namespace {

/// One method run at the current global thread count.
struct RunResult {
  double wall_seconds{0.0};
  std::size_t frames{0};
  double sensing_seconds{0.0};  // summed sensing wall time (stage.sense)
  edge::MethodMetrics metrics;
  obs::RunManifest manifest;
  /// Everything the run recorded: stage histograms, fate counters, pool
  /// gauges.
  std::unique_ptr<obs::MetricsRegistry> registry;
};

RunResult run_once(edge::Method method, bool redundancy, std::uint64_t seed,
                   double duration) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.speed_kmh = 30.0;
  cfg.total_vehicles = 16;
  cfg.pedestrians = 4;
  cfg.connected_fraction = 0.5;
  bench::dense_lidar(cfg);
  cfg.world.lidar.noise_sigma = 0.02;  // exercise the per-azimuth RNG path

  sim::Scenario sc = sim::make_unprotected_left_turn(cfg);
  edge::RunnerConfig rc = edge::make_runner_config(method, bench::bench_wireless());
  rc.duration = duration;
  rc.redundancy.enabled = redundancy;

  RunResult r;
  r.registry = std::make_unique<obs::MetricsRegistry>();
  rc.metrics = r.registry.get();
  rc.on_frame = [&](const edge::FrameTrace&) { ++r.frames; };

  r.manifest = edge::make_manifest(rc, "perf_pipeline", seed);
  edge::SystemRunner runner(rc);
  const auto t0 = std::chrono::steady_clock::now();
  r.metrics = runner.run(sc);
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.sensing_seconds =
      static_cast<double>(r.registry->histogram("stage.sense").sum()) * 1e-9;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out=FILE]\n", argv[0]);
      return 2;
    }
  }

  const double duration = quick ? 2.0 : 8.0;
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2};
  // One row per (method, redundancy) combination. "Ours-redundancy" is kOurs
  // with the coverage-feedback + delta-encoding uplink (DESIGN.md §16) turned
  // on; the plain Ours/EMP rows are unchanged, so their committed behavior
  // fingerprints must stay bit-identical.
  struct BenchRow {
    edge::Method method;
    bool redundancy;
    const char* label;
  };
  const std::vector<BenchRow> methods = {
      {edge::Method::kOurs, false, nullptr},
      {edge::Method::kEmp, false, nullptr},
      {edge::Method::kOurs, true, "Ours-redundancy"},
  };

  core::set_thread_count(0);  // auto: ERPD_THREADS env or hardware
  const std::size_t auto_threads = core::thread_count();

  bench::print_header("perf_pipeline - parallel frame pipeline",
                      quick ? "quick mode (CI smoke)" : nullptr);
  std::printf("threads: auto=%zu vs serial=1, %zu seed(s), %.0f s each\n\n",
              auto_threads, seeds.size(), duration);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "perf_pipeline");
  w.kv("quick", quick);
  w.kv("threads_auto", static_cast<std::uint64_t>(auto_threads));
  w.key("methods").begin_array();

  bool all_deterministic = true;
  double offered_plain = 0.0, offered_redundant = 0.0;
  for (std::size_t mi = 0; mi < methods.size(); ++mi) {
    const edge::Method method = methods[mi].method;
    const bool redundancy = methods[mi].redundancy;
    const char* label = methods[mi].label != nullptr ? methods[mi].label
                                                     : edge::to_string(method);

    // Parallel (auto) pass, then the pinned serial pass over the same seeds.
    // The first parallel run's registry (stage histograms and counters) goes
    // into the artifact.
    double par_wall = 0.0, ser_wall = 0.0, par_sense = 0.0;
    std::size_t frames = 0, raw_points = 0;
    std::vector<RunResult> par_runs;
    bool deterministic = true;

    core::set_thread_count(0);
    for (std::size_t si = 0; si < seeds.size(); ++si) {
      RunResult r = run_once(method, redundancy, seeds[si], duration);
      par_wall += r.wall_seconds;
      par_sense += r.sensing_seconds;
      frames += r.frames;
      raw_points += r.registry->counter("client.raw_points").value();
      par_runs.push_back(std::move(r));
    }
    core::set_thread_count(1);
    for (std::size_t si = 0; si < seeds.size(); ++si) {
      RunResult r = run_once(method, redundancy, seeds[si], duration);
      ser_wall += r.wall_seconds;
      if (edge::behavior_fingerprint(r.metrics) !=
          edge::behavior_fingerprint(par_runs[si].metrics)) {
        deterministic = false;
      }
    }
    core::set_thread_count(0);

    all_deterministic = all_deterministic && deterministic;
    const double speedup = par_wall > 0.0 ? ser_wall / par_wall : 0.0;
    const double pts_per_sec =
        par_sense > 0.0 ? static_cast<double>(raw_points) / par_sense : 0.0;

    // The registry dump comes from the first seed's parallel run (seeds
    // share the scenario shape; pooling adds noise, not signal).
    const RunResult& head = par_runs.front();

    if (method == edge::Method::kOurs) {
      (redundancy ? offered_redundant : offered_plain) =
          head.metrics.uplink_offered_bytes_per_frame;
    }

    std::printf("%-16s wall %6.2fs (1 thr: %6.2fs)  speedup %.2fx  "
                "%.2fM pts/s  deterministic=%s\n",
                label, par_wall, ser_wall, speedup, pts_per_sec / 1e6,
                deterministic ? "yes" : "NO");

    w.begin_object();
    w.kv("method", label);
    obs::append_manifest(w, head.manifest);
    w.kv("frames", static_cast<std::uint64_t>(frames));
    w.kv("raw_points", static_cast<std::uint64_t>(raw_points));
    w.kv("wall_seconds", par_wall);
    w.kv("wall_seconds_serial", ser_wall);
    w.kv("speedup_vs_1_thread", speedup);
    w.kv("sensing_points_per_sec", pts_per_sec);
    w.kv("deterministic_vs_serial", deterministic);
    w.kv("behavior_fingerprint",
         bench::hex64(edge::behavior_fingerprint(head.metrics)));
    w.kv("uplink_offered_bytes_per_frame",
         head.metrics.uplink_offered_bytes_per_frame);
    w.kv("uplink_drop_ratio", head.metrics.uplink_drop_ratio);
    w.kv("uplink_suppressed_bytes_per_frame",
         head.metrics.uplink_suppressed_bytes_per_frame);
    obs::append_registry(w, *head.registry);
    w.end_object();
  }

  w.end_array();
  w.kv("deterministic", all_deterministic);
  const double reduction =
      offered_redundant > 0.0 ? offered_plain / offered_redundant : 0.0;
  w.kv("redundancy_offered_reduction", reduction);
  w.end_object();
  std::printf("\nredundancy offered-bytes reduction: %.2fx "
              "(%.1f -> %.1f kB/frame)\n",
              reduction, offered_plain / 1024.0, offered_redundant / 1024.0);
  if (!obs::write_file(out_path, w.str() + "\n")) {
    std::fprintf(stderr, "perf_pipeline: cannot write %s\n", out_path.c_str());
    return 1;
  }

  std::printf("\nwrote %s\n", out_path.c_str());
  if (!all_deterministic) {
    std::fprintf(stderr,
                 "perf_pipeline: FAIL - parallel and serial runs diverged\n");
    return 1;
  }
  return 0;
}
