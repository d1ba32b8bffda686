#pragma once
// Shared helpers for the figure-reproduction benches: scenario execution
// over seeds, aggregation, and paper-style table printing.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "edge/metrics_io.hpp"
#include "edge/system_runner.hpp"
#include "obs/json.hpp"
#include "sim/scenario.hpp"

namespace erpd::bench {

/// "%016x" rendering of a 64-bit fingerprint for JSON artifacts.
inline std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Collects one row per (sweep point, seed) run and serializes them through
/// the obs exporter: every row carries the RunManifest for the exact
/// RunnerConfig it was produced with plus the full MethodMetrics field set.
/// Figure benches use this for their --out=FILE mode.
class BenchExport {
 public:
  explicit BenchExport(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& sweep, const edge::RunnerConfig& rc,
           std::uint64_t seed, const edge::MethodMetrics& m) {
    rows_.push_back(Row{sweep, edge::make_manifest(rc, sweep, seed), m});
  }

  std::string json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("bench", bench_);
    w.key("runs").begin_array();
    for (const Row& r : rows_) {
      w.begin_object();
      w.kv("sweep", r.sweep);
      obs::append_manifest(w, r.manifest);
      w.key("metrics").begin_object();
      edge::append_method_metrics(w, r.metrics);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str() + "\n";
  }

  /// Write the document when `path` is non-empty; empty path is a no-op.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    return obs::write_file(path, json());
  }

 private:
  struct Row {
    std::string sweep;
    obs::RunManifest manifest;
    edge::MethodMetrics metrics;
  };
  std::string bench_;
  std::vector<Row> rows_;
};

/// Parse the shared bench CLI: `--out=FILE` selects the JSON export path
/// (empty = stdout tables only). Unknown flags abort with a usage line.
inline std::string parse_out(int argc, char** argv) {
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--out=FILE]\n", argv[0]);
      std::exit(2);
    }
  }
  return out;
}

using ScenarioFactory =
    std::function<sim::Scenario(const sim::ScenarioConfig&)>;

/// Scaled-sensor evaluation setup. Relative to the paper's testbed
/// (64-channel, ~1M pts/frame, EMP-measured cellular caps) everything is
/// scaled by the same factor, preserving the shape of every bandwidth and
/// safety result; see DESIGN.md "Substitutions".
inline net::WirelessConfig bench_wireless() {
  net::WirelessConfig w;
  w.uplink_mbps = 16.0;
  w.downlink_mbps = 32.0;
  return w;
}

/// Safety sweeps (Figs. 10/11) use tighter caps so that EMP's Round-Robin
/// has to spread the traffic map over multiple rounds — the dissemination
/// delay the paper identifies as EMP's failure mode. (With our scaled-down
/// sensor the default caps would let RR ship the whole map every frame.)
inline net::WirelessConfig safety_wireless() {
  net::WirelessConfig w;
  w.uplink_mbps = 8.0;
  w.downlink_mbps = 2.5;
  return w;
}

/// Coarse sensor for safety sweeps (object-level visibility only).
inline void coarse_lidar(sim::ScenarioConfig& cfg) {
  cfg.world.lidar.channels = 16;
  cfg.world.lidar.azimuth_step_deg = 1.0;
}

/// Dense sensor for bandwidth/latency sweeps.
inline void dense_lidar(sim::ScenarioConfig& cfg) {
  cfg.world.lidar.channels = 32;
  cfg.world.lidar.azimuth_step_deg = 0.5;
}

inline double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Run one (factory, method) combination for each seed and return the
/// per-seed metrics. When `ex` is set, each run is recorded as an export row
/// labeled `sweep`.
inline std::vector<edge::MethodMetrics> run_seeds(
    const ScenarioFactory& factory, sim::ScenarioConfig cfg,
    edge::Method method, const std::vector<std::uint64_t>& seeds,
    double duration = 18.0,
    const net::WirelessConfig& wireless = bench_wireless(),
    BenchExport* ex = nullptr, const std::string& sweep = {}) {
  std::vector<edge::MethodMetrics> out;
  for (std::uint64_t seed : seeds) {
    cfg.seed = seed;
    sim::Scenario sc = factory(cfg);
    edge::RunnerConfig rc = edge::make_runner_config(method, wireless);
    rc.duration = duration;
    edge::SystemRunner runner(rc);
    out.push_back(runner.run(sc));
    if (ex != nullptr) ex->add(sweep, rc, seed, out.back());
  }
  return out;
}

/// run_seeds with the redundancy-aware uplink (coverage-feedback suppression
/// + delta encoding, DESIGN.md §16) enabled at its default knobs.
inline std::vector<edge::MethodMetrics> run_seeds_redundant(
    const ScenarioFactory& factory, sim::ScenarioConfig cfg,
    edge::Method method, const std::vector<std::uint64_t>& seeds,
    double duration = 18.0,
    const net::WirelessConfig& wireless = bench_wireless(),
    BenchExport* ex = nullptr, const std::string& sweep = {}) {
  std::vector<edge::MethodMetrics> out;
  for (std::uint64_t seed : seeds) {
    cfg.seed = seed;
    sim::Scenario sc = factory(cfg);
    edge::RunnerConfig rc = edge::make_runner_config(method, wireless);
    rc.duration = duration;
    rc.redundancy.enabled = true;
    edge::SystemRunner runner(rc);
    out.push_back(runner.run(sc));
    if (ex != nullptr) ex->add(sweep, rc, seed, out.back());
  }
  return out;
}

/// Degraded-cellular profile for the fault sections of Figs. 12/14: ~30%
/// uplink Bernoulli loss, 10% downlink loss, exponential jitter against a
/// 50 ms delivery deadline, with the edge's staleness decay and track
/// coasting enabled so the pipeline rides through the gaps.
inline void degrade_network(edge::RunnerConfig& rc, std::uint64_t seed) {
  rc.fault.seed = seed;
  rc.fault.uplink_loss = 0.30;
  rc.fault.downlink_loss = 0.10;
  rc.fault.jitter_mean = 0.004;
  rc.fault.downlink_deadline = 0.050;
  rc.edge.staleness_decay = 0.15;
  rc.edge.tracker.max_coast_frames = 6;
}

/// run_seeds with the degraded-network profile applied (fault schedule is
/// derived from each scenario seed, so reruns are reproducible).
inline std::vector<edge::MethodMetrics> run_seeds_degraded(
    const ScenarioFactory& factory, sim::ScenarioConfig cfg,
    edge::Method method, const std::vector<std::uint64_t>& seeds,
    double duration = 18.0,
    const net::WirelessConfig& wireless = bench_wireless(),
    BenchExport* ex = nullptr, const std::string& sweep = {}) {
  std::vector<edge::MethodMetrics> out;
  for (std::uint64_t seed : seeds) {
    cfg.seed = seed;
    sim::Scenario sc = factory(cfg);
    edge::RunnerConfig rc = edge::make_runner_config(method, wireless);
    rc.duration = duration;
    degrade_network(rc, seed);
    edge::SystemRunner runner(rc);
    out.push_back(runner.run(sc));
    if (ex != nullptr) ex->add(sweep, rc, seed, out.back());
  }
  return out;
}

inline double avg(const std::vector<edge::MethodMetrics>& ms,
                  double (*get)(const edge::MethodMetrics&)) {
  std::vector<double> v;
  v.reserve(ms.size());
  for (const auto& m : ms) v.push_back(get(m));
  return mean_of(v);
}

inline void print_header(const char* title, const char* note = nullptr) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  if (note != nullptr) std::printf("%s\n", note);
  std::printf("================================================================\n");
}

}  // namespace erpd::bench
