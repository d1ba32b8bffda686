// The repository benchmark: closed-loop frame throughput and latency of
// edge::SystemRunner::run on three traffic regimes, plus a per-layer traced
// run. perfbench/README.md documents the workloads and every metric;
// perfbench/run.py builds this program, checks its fingerprints and prints
// the result.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--frames F] [--episodes E]
//
// Every run is a closed loop with one client: SystemRunner::run starts
// frame k+1 only after frame k is done, and the 100 ms LiDAR period is
// simulated time. The pool runs at nproc workers (the CPUs this process may
// use), or at 1 worker for the serial baseline, never more.
//
// All host times come from this file's steady_clock stamps (on_frame
// callbacks, whole runs, direct calls) and from the count/sum of the
// registry's host-time stage spans. Simulated latencies are reported apart,
// under sim., and never mixed with them.
//
// Prints one JSON document on stdout; progress goes to stderr.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "edge/metrics_io.hpp"
#include "edge/system_runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "pointcloud/dbscan.hpp"
#include "pointcloud/encoding.hpp"
#include "pointcloud/ground_filter.hpp"
#include "pointcloud/voxel_grid.hpp"
#include "sim/scenario.hpp"

using namespace erpd;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile of raw samples (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (idx - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------
// Behaviour fingerprint
// ---------------------------------------------------------------------------

std::uint64_t fold(std::uint64_t h, double v) {
  return core::seed_mix(h, std::bit_cast<std::uint64_t>(v));
}
std::uint64_t fold(std::uint64_t h, int v) {
  return core::seed_mix(h, static_cast<std::uint64_t>(v));
}
std::uint64_t fold(std::uint64_t h, bool v) {
  return core::seed_mix(h, std::uint64_t{v ? 1u : 0u});
}

/// The MethodMetrics fields that hold host wall-clock times. Everything
/// else in the struct is simulated and deterministic.
bool is_host_time_field(std::string_view name) {
  return name == "e2e_latency" || name == "extraction_seconds" ||
         name == "merge_seconds" || name == "track_predict_seconds" ||
         name == "dissemination_decision_seconds";
}

/// Hash of every simulated MethodMetrics field (the exporter's X-macro
/// table, minus the host-time fields). Bit-equal at any worker count by the
/// determinism contract.
std::uint64_t fingerprint_of(const edge::MethodMetrics& m) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
#define PERFBENCH_FOLD(f) \
  if (!is_host_time_field(#f)) h = fold(h, m.f);
  ERPD_METHOD_METRICS_FIELDS(PERFBENCH_FOLD)
#undef PERFBENCH_FOLD
  return h;
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  /// Simulated episodes per cycle and frames per episode.
  int episodes{0};
  int frames{0};
  /// Connected, unparked vehicles every episode's scenario must have. The
  /// connected share is a per-vehicle coin flip, so without this stratum
  /// the client count, and with it the work per frame, would swing with the
  /// seed.
  int clients{0};
  std::function<sim::ScenarioConfig(std::uint64_t seed)> scenario;
  std::function<edge::RunnerConfig(const sim::Scenario&, std::uint64_t seed)>
      runner;
};

net::WirelessConfig bench_wireless() {
  net::WirelessConfig w;
  w.uplink_mbps = 16.0;
  w.downlink_mbps = 32.0;
  return w;
}

/// Unprotected left turn, 16 vehicles, 4 pedestrians, half connected,
/// dense LiDAR: the perf_pipeline scene.
sim::ScenarioConfig dense_scene(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.speed_kmh = 30.0;
  cfg.total_vehicles = 16;
  cfg.pedestrians = 4;
  cfg.connected_fraction = 0.5;
  cfg.world.lidar.channels = 32;
  cfg.world.lidar.azimuth_step_deg = 0.5;
  cfg.world.lidar.noise_sigma = 0.02;
  return cfg;
}

edge::RunnerConfig clean_runner(edge::Method method) {
  return edge::make_runner_config(method, bench_wireless());
}

/// Unprotected left turn filled to the map's capacity, everyone connected,
/// coarse LiDAR.
sim::ScenarioConfig fleet_scene(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.speed_kmh = 28.0;
  cfg.total_vehicles = 40;
  cfg.pedestrians = 24;
  cfg.connected_fraction = 1.0;
  cfg.world.lidar.channels = 16;
  cfg.world.lidar.azimuth_step_deg = 1.0;
  return cfg;
}

/// The soak stress stack (bench/soak.cpp) with budgets sized for the larger
/// fleet: lossy, jittery uplink with an outage, corruption and one
/// Byzantine car, under ingest guard + redundancy uplink + admission.
edge::RunnerConfig hardened_runner(const sim::Scenario& sc,
                                   std::uint64_t seed) {
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs,
                                                   bench_wireless());
  rc.fault.seed = core::seed_mix(seed, 0xfaull);
  rc.fault.uplink_loss = 0.10;
  rc.fault.jitter_mean = 0.010;
  rc.fault.downlink_deadline = 0.060;
  rc.fault.outages.push_back({3.0, 1.5});
  rc.fault.uplink_corruption = 0.05;
  rc.edge.staleness_decay = 0.10;
  rc.edge.tracker.max_coast_frames = 8;
  rc.edge.ingest.enabled = true;
  rc.edge.ingest.point_budget_per_frame = 2500;
  rc.redundancy.enabled = true;
  rc.service.enabled = true;
  rc.service.decode_merge_budget_us = 300;
  // One Byzantine background car: the last connected vehicle that is not
  // part of the scripted conflict.
  const auto& vehicles = sc.world.vehicles();
  for (auto it = vehicles.rbegin(); it != vehicles.rend(); ++it) {
    if (!it->params().connected || it->params().parked) continue;
    if (it->id() == sc.ego || it->id() == sc.threat ||
        it->id() == sc.ego_follower) {
      continue;
    }
    rc.fault.byzantine.push_back({it->id(), 1.0});
    break;
  }
  return rc;
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"ours_dense", 6, 40, 10, dense_scene,
               [](const sim::Scenario&, std::uint64_t) {
                 return clean_runner(edge::Method::kOurs);
               }});
  w.push_back({"emp_dense", 6, 40, 10, dense_scene,
               [](const sim::Scenario&, std::uint64_t) {
                 return clean_runner(edge::Method::kEmp);
               }});
  w.push_back({"fleet_hardened", 4, 60, 22, fleet_scene, hardened_runner});
  return w;
}

int connected_clients(const sim::Scenario& sc) {
  int n = 0;
  for (const sim::Vehicle& v : sc.world.vehicles()) {
    if (v.params().connected && !v.params().parked) ++n;
  }
  return n;
}

/// Scenario seed of episode `index` for run seed `seed`: the first draw of
/// the episode's seed stream whose scenario has the workload's client count.
/// The salt comes second because seed_mix's first fold is symmetric: without
/// it, episode i of seed j would be episode j of seed i.
std::uint64_t episode_seed(const Workload& w, std::uint64_t seed, int index) {
  constexpr std::uint64_t kSalt = 0x7065726662656e63ull;
  for (std::uint64_t attempt = 0; attempt < 1000; ++attempt) {
    const std::uint64_t s = core::seed_mix(
        seed, kSalt, static_cast<std::uint64_t>(index), attempt);
    if (connected_clients(sim::make_unprotected_left_turn(w.scenario(s))) ==
        w.clients) {
      return s;
    }
  }
  throw std::runtime_error("no scenario with the workload's client count");
}

// ---------------------------------------------------------------------------
// One closed-loop run
// ---------------------------------------------------------------------------

struct RunRecord {
  int episode{0};
  /// Cycle of the run; -1 for the untimed warm-up.
  int cycle{-1};
  std::size_t workers{0};
  bool traced{false};
  /// Pool start + scenario construction + SystemRunner construction.
  double setup_s{0.0};
  double wall_s{0.0};
  int frames{0};
  std::uint64_t fingerprint{0};
  std::string error;
  edge::MethodMetrics metrics{};
  /// Host ms of the run cut at every on_frame callback: start -> first
  /// callback, each callback -> the next (one World::step plus one pipeline
  /// frame), last callback -> end. Sums to wall_s.
  std::vector<double> segments_ms;
};

/// One closed-loop episode on a freshly started pool of `workers`.
RunRecord run_episode(const Workload& w, std::uint64_t ep_seed, int episode,
                      int cycle, std::size_t workers,
                      obs::MetricsRegistry* registry) {
  RunRecord r;
  r.episode = episode;
  r.cycle = cycle;
  r.workers = workers;
  r.traced = registry != nullptr;
  try {
    const Clock::time_point setup0 = Clock::now();
    core::set_thread_count(workers);
    sim::Scenario sc = sim::make_unprotected_left_turn(w.scenario(ep_seed));
    edge::RunnerConfig rc = w.runner(sc, ep_seed);
    rc.duration = w.frames * sc.world.config().dt;
    rc.metrics = registry;
    r.segments_ms.reserve(static_cast<std::size_t>(w.frames) + 1);
    Clock::time_point last{};
    rc.on_frame = [&](const edge::FrameTrace&) {
      const Clock::time_point now = Clock::now();
      r.segments_ms.push_back(
          std::chrono::duration<double, std::milli>(now - last).count());
      last = now;
      ++r.frames;
    };
    edge::SystemRunner runner(rc);
    const Clock::time_point t0 = Clock::now();
    r.setup_s = std::chrono::duration<double>(t0 - setup0).count();
    last = t0;
    r.metrics = runner.run(sc);
    const Clock::time_point t1 = Clock::now();
    r.segments_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - last).count());
    r.wall_s = std::chrono::duration<double>(t1 - t0).count();
    r.fingerprint = fingerprint_of(r.metrics);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// One way of running episodes: pool width, whether a registry is
/// attached, and which episodes (every `stride`-th, from episode 0).
struct Variant {
  std::size_t workers{1};
  bool traced{false};
  std::size_t stride{1};

  bool matches(const RunRecord& r) const {
    return r.cycle >= 0 && r.error.empty() && r.workers == workers &&
           r.traced == traced;
  }
};

/// Run cycles until about `seconds` have passed since `start`, at least two;
/// returns how many. A cycle runs every episode once under every variant,
/// the variants back to back per episode, so drifting background load falls
/// on each alike, then calls `after_cycle` if given. A further cycle starts
/// only if it would end nearer to `seconds` than stopping now.
int run_cycles(const Workload& w, const std::vector<std::uint64_t>& seeds,
               const std::vector<Variant>& variants, double seconds,
               Clock::time_point start, std::vector<RunRecord>& log,
               std::vector<std::unique_ptr<obs::MetricsRegistry>>& registries,
               const std::function<void()>& after_cycle = nullptr) {
  int c = 0;
  double cycle_s = 0.0;
  while (c < 2 || seconds_since(start) + 0.5 * cycle_s < seconds) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      for (const Variant& v : variants) {
        if (i % v.stride != 0) continue;
        obs::MetricsRegistry* reg = nullptr;
        if (v.traced) {
          registries.push_back(std::make_unique<obs::MetricsRegistry>());
          reg = registries.back().get();
        }
        log.push_back(
            run_episode(w, seeds[i], static_cast<int>(i), c, v.workers, reg));
      }
    }
    if (after_cycle) after_cycle();
    cycle_s = seconds_since(t0);
    ++c;
  }
  return c;
}

/// Throughput of a variant: frames over wall time of its runs in each
/// cycle, median over the cycles.
double frames_per_s(const std::vector<RunRecord>& log, const Variant& v,
                    int cycles) {
  std::vector<double> frames(static_cast<std::size_t>(cycles), 0.0);
  std::vector<double> wall(frames.size(), 0.0);
  for (const RunRecord& r : log) {
    if (!v.matches(r)) continue;
    frames[static_cast<std::size_t>(r.cycle)] += r.frames;
    wall[static_cast<std::size_t>(r.cycle)] += r.wall_s;
  }
  std::vector<double> per_cycle;
  for (std::size_t c = 0; c < frames.size(); ++c) {
    if (wall[c] > 0.0) per_cycle.push_back(frames[c] / wall[c]);
  }
  return median(per_cycle);
}

/// Raw callback-to-callback intervals (World::step + one pipeline frame) of
/// every run of a variant.
std::vector<double> frame_ms(const std::vector<RunRecord>& log,
                             const Variant& v) {
  std::vector<double> out;
  for (const RunRecord& r : log) {
    if (!v.matches(r) || r.segments_ms.size() < 3) continue;
    out.insert(out.end(), r.segments_ms.begin() + 1, r.segments_ms.end() - 1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Direct calls into single layers on a copy of the workload's scenario
// ---------------------------------------------------------------------------

struct DirectSample {
  std::size_t scans{0};
  double pts_raw{0}, pts_ground{0}, pts_voxel{0}, pts_codec{0};
  double ground_s{0}, voxel_s{0}, dbscan_s{0}, codec_s{0};
};

/// One scan per connected, active vehicle (at most four), through the
/// vehicle-side kernels one by one.
void sample_kernels(const sim::World& world, const edge::ClientConfig& client,
                    DirectSample& d) {
  const pc::MovingExtractorConfig& ex = client.extractor;
  const sim::RoadNetwork& net = world.network();
  int taken = 0;
  for (const sim::Vehicle& v : world.vehicles()) {
    if (taken == 4) break;
    if (!v.params().connected || v.params().parked || v.finished(net) ||
        v.crashed()) {
      continue;
    }
    ++taken;
    const sim::LidarScan scan = world.scan_from(v.id());
    Clock::time_point t0 = Clock::now();
    const pc::PointCloud no_ground = pc::remove_ground(scan.cloud, ex.ground);
    d.ground_s += seconds_since(t0);
    t0 = Clock::now();
    const pc::PointCloud thin =
        ex.voxel_size > 0.0 ? pc::voxel_downsample(no_ground, ex.voxel_size)
                            : no_ground;
    d.voxel_s += seconds_since(t0);
    t0 = Clock::now();
    const pc::DbscanResult seg = pc::dbscan(thin, ex.dbscan);
    d.dbscan_s += seconds_since(t0);
    for (const pc::ObjectCluster& c : pc::extract_clusters(thin, seg)) {
      if (c.point_count() < ex.min_cluster_points) continue;
      const pc::PointCloud obj = thin.subset(c.indices);
      t0 = Clock::now();
      const pc::EncodedCloud enc = pc::encode(obj, client.encoding);
      const pc::DecodeResult dec = pc::try_decode(enc);
      d.codec_s += seconds_since(t0);
      if (!dec.ok() || dec.cloud.size() != obj.size()) {
        throw std::runtime_error("codec round trip failed");
      }
      d.pts_codec += static_cast<double>(obj.size());
    }
    ++d.scans;
    d.pts_raw += static_cast<double>(scan.cloud.size());
    d.pts_ground += static_cast<double>(no_ground.size());
    d.pts_voxel += static_cast<double>(thin.size());
  }
}

/// On a fresh copy of episode 0's scenario, at four points of the episode,
/// pass the scans of up to four connected vehicles through ground removal
/// -> voxel -> DBSCAN -> encode/try_decode with the workload's extractor
/// settings.
DirectSample direct_sample(const Workload& w, std::uint64_t ep_seed) {
  DirectSample d;
  const int sample_every = std::max(1, w.frames / 4);
  sim::Scenario sc = sim::make_unprotected_left_turn(w.scenario(ep_seed));
  const edge::RunnerConfig rc = w.runner(sc, ep_seed);
  for (int f = 0; f < w.frames; ++f) {
    if (f % sample_every == sample_every / 2) {
      sample_kernels(sc.world, rc.client, d);
    }
    sc.world.step();
  }
  return d;
}

/// Step a fresh copy of every episode's scenario with no pipeline, timing
/// each World::step (host ms), appended to `step_ms`. Sampled after every
/// traced cycle over every episode, so its mean is taken over the same
/// scenes and host conditions as the traced frame mean it is subtracted
/// from.
void sample_world_steps(const Workload& w,
                        const std::vector<std::uint64_t>& seeds,
                        std::vector<double>& step_ms) {
  for (const std::uint64_t ep_seed : seeds) {
    sim::Scenario sc = sim::make_unprotected_left_turn(w.scenario(ep_seed));
    for (int f = 0; f < w.frames; ++f) {
      const Clock::time_point t0 = Clock::now();
      sc.world.step();
      step_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
}

// ---------------------------------------------------------------------------
// Registry aggregation (counter values and span count/sum only)
// ---------------------------------------------------------------------------

struct Totals {
  std::map<std::string, double> counter;
  std::map<std::string, double> span_s;  // histogram sum, seconds
  std::map<std::string, double> gauge_sum;
  int frames{0};
  double wall_s{0.0};

  double c(const std::string& k) const {
    const auto it = counter.find(k);
    return it == counter.end() ? 0.0 : it->second;
  }
  double s(const std::string& k) const {
    const auto it = span_s.find(k);
    return it == span_s.end() ? 0.0 : it->second;
  }
  double per_frame(double v) const { return frames > 0 ? v / frames : 0.0; }
};

Totals aggregate(
    const std::vector<std::unique_ptr<obs::MetricsRegistry>>& regs) {
  Totals t;
  for (const auto& reg : regs) {
    for (const auto& [name, v] : reg->counters()) {
      t.counter[name] += static_cast<double>(v);
    }
    for (const auto& [name, h] : reg->histograms()) {
      t.span_s[name] += static_cast<double>(h->sum()) * 1e-9;
    }
    for (const auto& [name, v] : reg->gauges()) t.gauge_sum[name] += v;
  }
  return t;
}

double ratio(double num, double den, double if_empty = 0.0) {
  return den > 0.0 ? num / den : if_empty;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void write_runs(obs::JsonWriter& j, const std::vector<RunRecord>& log) {
  j.key("runs").begin_array();
  for (const RunRecord& r : log) {
    j.begin_object();
    j.kv("episode", r.episode);
    j.kv("cycle", r.cycle);
    j.kv("workers", static_cast<std::uint64_t>(r.workers));
    j.kv("traced", r.traced);
    j.kv("frames", r.frames);
    j.kv("wall_s", r.wall_s);
    j.kv("fingerprint", hex64(r.fingerprint));
    j.kv("error", r.error);
    j.end_object();
  }
  j.end_array();
}

/// Simulated latencies, averaged over the episodes (each episode's first
/// run): deterministic, and kept apart from host time.
void write_sim(obs::JsonWriter& j, const std::vector<RunRecord>& log,
               std::size_t episodes) {
  double up = 0.0, down = 0.0;
  int n = 0;
  std::vector<bool> seen(episodes, false);
  for (const RunRecord& r : log) {
    const auto ep = static_cast<std::size_t>(r.episode);
    if (!r.error.empty() || seen[ep]) continue;
    seen[ep] = true;
    up += r.metrics.upload_seconds;
    down += r.metrics.downlink_transfer_seconds;
    ++n;
  }
  j.key("sim").begin_object();
  j.kv("sim.upload_ms", n > 0 ? up * 1e3 / n : 0.0);
  j.kv("sim.downlink_ms", n > 0 ? down * 1e3 / n : 0.0);
  j.end_object();
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  int trace{0};
  int frames{0};
  int episodes{0};
};

[[noreturn]] void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--frames F] [--episodes E]\n",
               prog);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--frames") {
      a.frames = std::atoi(v);
    } else if (k == "--episodes") {
      a.episodes = std::atoi(v);
    } else {
      usage(argv[0]);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0) usage(argv[0]);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  const Args args = parse(argc, argv);
  Workload w;
  bool found = false;
  for (const Workload& cand : workloads()) {
    if (cand.name == args.workload) {
      w = cand;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.frames > 0) w.frames = args.frames;
  if (args.episodes > 0) w.episodes = args.episodes;

  const std::size_t workers = nproc();
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < w.episodes; ++i) {
    seeds.push_back(episode_seed(w, args.seed, i));
  }

  obs::JsonWriter j;
  j.begin_object();
  j.kv("workload", w.name);
  j.kv("seed", args.seed);
  j.kv("workers", static_cast<std::uint64_t>(workers));
  j.kv("episodes", w.episodes);
  j.kv("frames_per_episode", w.frames);
  j.key("episode_seeds").begin_array();
  for (const std::uint64_t s : seeds) j.value(s);
  j.end_array();
  j.key("episode_clients").begin_array();
  for (const std::uint64_t s : seeds) {
    j.value(connected_clients(sim::make_unprotected_left_turn(w.scenario(s))));
  }
  j.end_array();

  std::vector<RunRecord> log;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> regs;
  // Warm-up: caches, allocator and pool threads settle. The run is checked
  // like every other run but not timed.
  log.push_back(run_episode(w, seeds.front(), 0, -1, workers, nullptr));
  if (args.trace == 0) {
    // The serial baseline runs every other episode: it costs three times
    // the nproc runs on ours_dense, and the p95 needs every episode only at
    // nproc.
    const Variant full{workers, false, 1};
    const Variant serial{1, false, 2};
    const int cycles = run_cycles(w, seeds, {full, serial}, args.seconds,
                                  start, log, regs);
    std::vector<double> setup_samples;
    for (const RunRecord& r : log) {
      if (full.matches(r)) setup_samples.push_back(r.setup_s);
    }

    const std::vector<double> frames = frame_ms(log, full);
    const double p95 = percentile(frames, 0.95);
    const auto above = static_cast<std::uint64_t>(std::count_if(
        frames.begin(), frames.end(), [p95](double x) { return x > p95; }));
    j.kv("cycles", cycles);
    j.key("e2e").begin_object();
    j.kv("frames_per_s", frames_per_s(log, full, cycles));
    j.kv("frames_per_s_1w", frames_per_s(log, serial, cycles));
    j.kv("frame_ms_p50", percentile(frames, 0.50));
    j.kv("frame_ms_p95", p95);
    j.kv("setup_s", median(setup_samples));
    j.kv("peak_rss_mb", peak_rss_mb());
    j.end_object();
    j.kv("frame_samples", static_cast<std::uint64_t>(frames.size()));
    j.kv("frame_samples_above_p95", above);
    j.kv("setup_samples", static_cast<std::uint64_t>(setup_samples.size()));
  } else {
    // (c) direct calls, then untraced and traced runs at nproc: the traced
    // runs give the per-layer numbers, the pair gives the tracing overhead.
    DirectSample d;
    std::string direct_error;
    try {
      d = direct_sample(w, seeds.front());
    } catch (const std::exception& e) {
      direct_error = e.what();
    }
    const Variant untraced{workers, false, 1};
    const Variant traced{workers, true, 1};
    std::vector<double> step_ms;
    const int cycles =
        run_cycles(w, seeds, {untraced, traced}, args.seconds, start, log,
                   regs, [&] { sample_world_steps(w, seeds, step_ms); });
    j.kv("cycles", cycles);
    double step_sum = 0.0;
    for (const double x : step_ms) step_sum += x;
    const double world_step_ms = ratio(step_sum, step_ms.size());
    Totals t = aggregate(regs);
    for (const RunRecord& r : log) {
      if (!traced.matches(r)) continue;
      t.frames += r.frames;
      t.wall_s += r.wall_s;
    }
    const double frame_mean_ms = t.per_frame(t.wall_s) * 1e3;
    const double sense = t.s("stage.sense");
    const double extract = t.s("stage.extract");
    const double fanout = t.s("stage.fanout");
    const double merge = t.s("stage.merge");
    const double track = t.s("stage.track");
    const double rel = t.s("stage.relevance");
    const double diss = t.s("stage.disseminate");
    const double raw_pts = t.c("client.raw_points");
    double lane_max = 0.0, lane_sum = 0.0;
    int lanes = 0;
    for (const auto& [name, v] : t.gauge_sum) {
      if (name.rfind("pool.lane_chunks.", 0) != 0) continue;
      lane_max = std::max(lane_max, v);
      lane_sum += v;
      ++lanes;
    }
    j.key("layers").begin_object();
    j.kv("sim.world_step_ms", world_step_ms);
    j.kv("sim.sense_ms_per_frame", t.per_frame(sense) * 1e3);
    j.kv("sim.sense_mpts_per_s", ratio(raw_pts, sense) / 1e6);
    j.kv("pointcloud.extract_ms_per_frame", t.per_frame(extract) * 1e3);
    j.kv("pointcloud.extract_mpts_per_s", ratio(raw_pts, extract) / 1e6);
    j.kv("pointcloud.ground_ns_per_pt", ratio(d.ground_s, d.pts_raw) * 1e9);
    j.kv("pointcloud.voxel_ns_per_pt", ratio(d.voxel_s, d.pts_ground) * 1e9);
    j.kv("pointcloud.dbscan_ns_per_pt", ratio(d.dbscan_s, d.pts_voxel) * 1e9);
    j.kv("pointcloud.dbscan_share",
         ratio(d.dbscan_s, d.ground_s + d.voxel_s + d.dbscan_s));
    j.kv("pointcloud.pts_raw_per_scan", ratio(d.pts_raw, d.scans));
    j.kv("pointcloud.pts_after_ground_per_scan", ratio(d.pts_ground, d.scans));
    j.kv("pointcloud.pts_after_voxel_per_scan", ratio(d.pts_voxel, d.scans));
    j.kv("pointcloud.codec_ns_per_pt", ratio(d.codec_s, d.pts_codec) * 1e9);
    j.kv("edge.fanout_ms_per_frame", t.per_frame(fanout) * 1e3);
    j.kv("core.pool_efficiency",
         ratio(sense + extract, fanout * static_cast<double>(workers)));
    j.kv("core.pool_lane_skew", lanes > 0 ? lane_max / (lane_sum / lanes) : 1.0);
    j.kv("net.uplink_offered_kB_per_frame",
         t.per_frame(t.c("uplink.offered_bytes")) / 1e3);
    j.kv("net.uplink_delivered_kB_per_frame",
         t.per_frame(t.c("uplink.delivered_bytes")) / 1e3);
    j.kv("net.uplink_suppressed_kB_per_frame",
         t.per_frame(t.c("uplink.suppressed_bytes")) / 1e3);
    j.kv("net.uplink_drop_ratio",
         ratio(t.c("uplink.lost_bytes") + t.c("uplink.capped_bytes"),
               t.c("uplink.offered_bytes")));
    j.kv("net.downlink_kB_per_frame",
         t.per_frame(t.c("downlink.bytes") + t.c("coverage.feedback_bytes")) /
             1e3);
    j.kv("edge.merge_ms_per_frame", t.per_frame(merge) * 1e3);
    j.kv("edge.detections_per_frame", t.per_frame(t.c("edge.detections")));
    j.kv("edge.other_ms_per_frame",
         frame_mean_ms -
             t.per_frame(fanout + merge + track + rel + diss) * 1e3 -
             world_step_ms);
    j.kv("edge.ingest_rejected",
         (t.c("ingest.rejected_crc") + t.c("ingest.rejected_semantic")) /
             cycles);
    j.kv("edge.ingest_shed_uploads", t.c("ingest.shed_uploads") / cycles);
    j.kv("edge.service_admit_ratio",
         ratio(t.c("service.admitted_objects"), t.c("service.arrived_objects"),
               1.0));
    j.kv("edge.service_deferred_per_frame",
         t.per_frame(t.c("service.deferred_objects")));
    j.kv("edge.feedback_msgs_per_frame",
         t.per_frame(t.c("coverage.feedback_msgs")));
    j.kv("track.ms_per_frame", t.per_frame(track) * 1e3);
    j.kv("track.confirmed_per_frame", t.per_frame(t.c("edge.confirmed_tracks")));
    j.kv("track.coasting_per_frame", t.per_frame(t.c("edge.coasting_tracks")));
    j.kv("track.moving_per_frame", t.per_frame(t.c("edge.moving_tracks")));
    j.kv("core.relevance_ms_per_frame", t.per_frame(rel) * 1e3);
    j.kv("core.candidates_per_frame", t.per_frame(t.c("edge.candidates")));
    j.kv("core.disseminate_ms_per_frame", t.per_frame(diss) * 1e3);
    j.kv("core.selected_ratio",
         ratio(t.c("diss.selected_msgs"), t.c("edge.candidates")));
    j.kv("obs.tracing_overhead",
         1.0 - ratio(frames_per_s(log, traced, cycles),
                     frames_per_s(log, untraced, cycles)));
    j.end_object();
    j.kv("traced_frame_ms_p50", percentile(frame_ms(log, traced), 0.50));
    j.kv("traced_frame_ms_mean", frame_mean_ms);
    j.kv("direct_error", direct_error);
  }
  write_sim(j, log, seeds.size());
  write_runs(j, log);
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
