// Ablation (§II-B): Moving Objects Extraction — per-stage data reduction
// (paper: 2-3 MB raw -> <20 KB) and per-stage runtime on realistic frames
// synthesized by the simulator's LiDAR over an intersection scene.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "pointcloud/encoding.hpp"
#include "pointcloud/moving_extractor.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace erpd;

/// A scenario world + a connected viewer to scan from.
struct Scene {
  sim::Scenario sc;
  sim::AgentId viewer;

  static Scene make(int channels, double az_step) {
    sim::ScenarioConfig cfg;
    cfg.speed_kmh = 30.0;
    cfg.total_vehicles = 20;
    cfg.pedestrians = 6;
    cfg.connected_fraction = 0.4;
    cfg.seed = 3;
    cfg.world.lidar.channels = channels;
    cfg.world.lidar.azimuth_step_deg = az_step;
    Scene s{sim::make_unprotected_left_turn(cfg), sim::kInvalidAgent};
    s.viewer = s.sc.ego;
    return s;
  }
};

void reduction_table() {
  std::printf("\nData reduction per stage (one LiDAR frame, 64 ch x 0.2 deg)\n");
  Scene scene = Scene::make(64, 0.2);
  sim::World& w = scene.sc.world;

  // The closed loop's extractor: VehicleClient runs the default config.
  pc::MovingObjectExtractor ex(pc::MovingExtractorConfig{});

  // Warm up motion history, then measure the steady-state frame.
  pc::ExtractionResult res;
  sim::LidarScan scan;
  for (int f = 0; f < 8; ++f) {
    scan = w.scan_from(scene.viewer);
    const sim::Vehicle* v = w.find_vehicle(scene.viewer);
    res = ex.process(scan.cloud, v->sensor_pose(w.network()), w.time());
    w.step();
  }

  const std::size_t raw_b = res.stats.raw_points * pc::kRawBytesPerPoint;
  const std::size_t ground_b = res.stats.after_ground * pc::kRawBytesPerPoint;
  std::size_t moving_b = 0;
  for (const auto& o : res.objects) moving_b += pc::encoded_size_bytes(o.point_count);

  std::printf("%-34s %10zu pts %10.1f KB\n", "raw frame", res.stats.raw_points,
              raw_b / 1024.0);
  std::printf("%-34s %10zu pts %10.1f KB\n", "after ground removal",
              res.stats.after_ground, ground_b / 1024.0);
  std::printf("%-34s %10zu pts %10.1f KB  (%zu objects)\n",
              "moving objects only (encoded)", res.stats.moving_points,
              moving_b / 1024.0, res.objects.size());
  std::printf("reduction: %.0fx\n\n",
              static_cast<double>(raw_b) / std::max<std::size_t>(moving_b, 1));
}

void BM_LidarScan(benchmark::State& state) {
  Scene scene = Scene::make(static_cast<int>(state.range(0)), 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scene.sc.world.scan_from(scene.viewer));
  }
}
BENCHMARK(BM_LidarScan)->Arg(16)->Arg(32)->Arg(64);

void BM_Extraction(benchmark::State& state) {
  Scene scene = Scene::make(32, 0.4);
  sim::World& w = scene.sc.world;
  pc::MovingObjectExtractor ex(pc::MovingExtractorConfig{});
  const sim::LidarScan scan = w.scan_from(scene.viewer);
  const sim::Vehicle* v = w.find_vehicle(scene.viewer);
  const geom::Pose pose = v->sensor_pose(w.network());
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.process(scan.cloud, pose, t));
    t += 0.1;
  }
}
BENCHMARK(BM_Extraction);

void BM_EncodeDecode(benchmark::State& state) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(-25.0, 25.0);
  pc::PointCloud cloud;
  for (int i = 0; i < 5000; ++i) cloud.push_back({u(rng), u(rng), u(rng) * 0.1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::decode(pc::encode(cloud)));
  }
}
BENCHMARK(BM_EncodeDecode);

}  // namespace

int main(int argc, char** argv) {
  reduction_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
