// Reproduces paper Fig. 12:
//   (a) uplink bandwidth consumption vs % connected vehicles
//       (Ours << EMP <= cap << Unlimited);
//   (b) number of (moving) objects detected from the uploaded data
//       (Ours ~ Unlimited > EMP; EMP degrades as contention grows).

#include <cstdio>

#include "bench_util.hpp"

using namespace erpd;

namespace {

const std::vector<std::uint64_t> kSeeds = {1, 2};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = bench::parse_out(argc, argv);
  bench::BenchExport ex("fig12_upload");
  bench::print_header(
      "Fig. 12 - data uploading",
      "dense sensor (32 ch x 0.5 deg); uplink cap 16 Mbit/s (scaled, see "
      "DESIGN.md); mean over 2 seeds, 10 s");

  std::printf("%8s | %28s | %22s | %25s\n", "", "(a) uplink Mbit/s",
              "(b) objects", "(c) offered kB/fr (drop%)");
  std::printf("%8s | %8s %8s %10s | %6s %6s %8s | %12s %12s\n", "conn%",
              "Ours", "EMP", "Unlimited", "Ours", "EMP", "Unlmtd", "Ours",
              "EMP");

  for (double conn : {0.2, 0.3, 0.4, 0.5}) {
    sim::ScenarioConfig cfg;
    cfg.speed_kmh = 30.0;
    cfg.total_vehicles = 20;
    cfg.pedestrians = 6;
    cfg.connected_fraction = conn;
    bench::dense_lidar(cfg);

    char sweep[32];
    std::snprintf(sweep, sizeof(sweep), "conn-%02.0f", conn * 100.0);
    const auto o =
        bench::run_seeds(sim::make_unprotected_left_turn, cfg,
                         edge::Method::kOurs, kSeeds, 10.0,
                         bench::bench_wireless(), &ex, sweep);
    const auto e =
        bench::run_seeds(sim::make_unprotected_left_turn, cfg,
                         edge::Method::kEmp, kSeeds, 10.0,
                         bench::bench_wireless(), &ex, sweep);
    const auto u =
        bench::run_seeds(sim::make_unprotected_left_turn, cfg,
                         edge::Method::kUnlimited, kSeeds, 10.0,
                         bench::bench_wireless(), &ex, sweep);

    const auto up = [](const edge::MethodMetrics& m) { return m.uplink_mbps; };
    const auto obj = [](const edge::MethodMetrics& m) {
      return m.avg_objects_detected;
    };
    const auto off = [](const edge::MethodMetrics& m) {
      return m.uplink_offered_bytes_per_frame / 1024.0;
    };
    const auto drop = [](const edge::MethodMetrics& m) {
      return 100.0 * m.uplink_drop_ratio;
    };
    std::printf(
        "%8.0f | %8.2f %8.2f %10.2f | %6.1f %6.1f %8.1f | %6.1f (%3.0f) "
        "%6.1f (%3.0f)\n",
        conn * 100.0, bench::avg(o, up), bench::avg(e, up), bench::avg(u, up),
        bench::avg(o, obj), bench::avg(e, obj), bench::avg(u, obj),
        bench::avg(o, off), bench::avg(o, drop), bench::avg(e, off),
        bench::avg(e, drop));
  }

  // Redundancy addendum: the coverage-feedback + delta-encoding uplink
  // (DESIGN.md §16) on top of Ours. Offered bytes shrink several-fold while
  // the uploaded data still feeds the same detection pipeline.
  std::printf("\n(e) redundancy-aware uplink (coverage feedback + delta "
              "encoding), Ours\n");
  std::printf("%8s | %10s %10s %9s | %10s %8s %8s\n", "conn%", "off kB/fr",
              "red kB/fr", "reduct", "suppr kB", "objects", "fb msgs");
  for (double conn : {0.2, 0.3, 0.4, 0.5}) {
    sim::ScenarioConfig cfg;
    cfg.speed_kmh = 30.0;
    cfg.total_vehicles = 20;
    cfg.pedestrians = 6;
    cfg.connected_fraction = conn;
    bench::dense_lidar(cfg);
    char sweep[40];
    std::snprintf(sweep, sizeof(sweep), "redundancy-conn-%02.0f",
                  conn * 100.0);
    const auto plain =
        bench::run_seeds(sim::make_unprotected_left_turn, cfg,
                         edge::Method::kOurs, kSeeds, 10.0,
                         bench::bench_wireless(), nullptr, {});
    const auto red = bench::run_seeds(
        sim::make_unprotected_left_turn, cfg, edge::Method::kOurs, kSeeds,
        10.0, bench::bench_wireless(), &ex, sweep,
        [](edge::RunnerConfig& rc, std::uint64_t) {
          rc.redundancy.enabled = true;
        });
    const auto off = [](const edge::MethodMetrics& m) {
      return m.uplink_offered_bytes_per_frame / 1024.0;
    };
    const auto sup = [](const edge::MethodMetrics& m) {
      return m.uplink_suppressed_bytes_per_frame / 1024.0;
    };
    const auto obj = [](const edge::MethodMetrics& m) {
      return m.avg_objects_detected;
    };
    const auto fb = [](const edge::MethodMetrics& m) {
      return static_cast<double>(m.coverage_feedback_msgs);
    };
    const double off_plain = bench::avg(plain, off);
    const double off_red = bench::avg(red, off);
    std::printf("%8.0f | %10.1f %10.1f %8.2fx | %10.1f %8.1f %8.0f\n",
                conn * 100.0, off_plain, off_red,
                off_red > 0.0 ? off_plain / off_red : 0.0,
                bench::avg(red, sup), bench::avg(red, obj),
                bench::avg(red, fb));
  }

  // Degraded-network addendum: the same upload pipeline under ~30% uplink
  // loss. Detection dips but the edge coasts confirmed tracks through the
  // gaps instead of dropping them.
  std::printf("\n(d) degraded network (30%% uplink loss, 10%% downlink "
              "loss, 50 ms deadline), Ours\n");
  std::printf("%8s | %10s %8s %10s %10s %10s\n", "conn%", "loss meas",
              "objects", "coast fr", "stale fr", "miss%");
  for (double conn : {0.2, 0.5}) {
    sim::ScenarioConfig cfg;
    cfg.speed_kmh = 30.0;
    cfg.total_vehicles = 20;
    cfg.pedestrians = 6;
    cfg.connected_fraction = conn;
    bench::dense_lidar(cfg);
    char sweep[40];
    std::snprintf(sweep, sizeof(sweep), "degraded-conn-%02.0f", conn * 100.0);
    const auto d = bench::run_seeds(
        sim::make_unprotected_left_turn, cfg, edge::Method::kOurs, kSeeds,
        10.0, bench::bench_wireless(), &ex, sweep, bench::degrade_network);
    const auto loss = [](const edge::MethodMetrics& m) {
      return m.uplink_loss_ratio;
    };
    const auto obj = [](const edge::MethodMetrics& m) {
      return m.avg_objects_detected;
    };
    const auto coast = [](const edge::MethodMetrics& m) {
      return static_cast<double>(m.coasted_track_frames);
    };
    const auto stale = [](const edge::MethodMetrics& m) {
      return static_cast<double>(m.stale_relevance_frames);
    };
    const auto miss = [](const edge::MethodMetrics& m) {
      return 100.0 * m.downlink_deadline_miss_ratio;
    };
    std::printf("%8.0f | %10.3f %8.1f %10.0f %10.0f %10.1f\n", conn * 100.0,
                bench::avg(d, loss), bench::avg(d, obj), bench::avg(d, coast),
                bench::avg(d, stale), bench::avg(d, miss));
  }

  std::printf(
      "\nExpected shape (paper Fig. 12): Ours consumes far less uplink than\n"
      "EMP (static structure removed) and both are dwarfed by Unlimited's\n"
      "raw frames; EMP rides at/near the cap, so it detects fewer objects,\n"
      "and the gap widens as more vehicles share the uplink, while Ours\n"
      "matches Unlimited's object count. Column (c) separates demand from\n"
      "goodput: EMP offers more than the cap admits (high drop%%), while\n"
      "Ours' moving-object uploads fit with room to spare.\n");
  if (!ex.write(out_path)) {
    std::fprintf(stderr, "fig12_upload: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!out_path.empty()) std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
