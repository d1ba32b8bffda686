// End-to-end tests: scenario -> sensing -> uplink -> edge pipeline ->
// dissemination -> driver reaction, for each evaluated method.

#include <gtest/gtest.h>

#include "edge/system_runner.hpp"
#include "obs/metrics.hpp"

namespace erpd::edge {
namespace {

sim::ScenarioConfig fast_scenario(double kmh = 30.0, std::uint64_t seed = 5) {
  sim::ScenarioConfig cfg;
  cfg.speed_kmh = kmh;
  cfg.total_vehicles = 12;
  cfg.pedestrians = 3;
  cfg.connected_fraction = 0.5;
  cfg.seed = seed;
  // Coarse LiDAR keeps the test quick; geometry is unchanged.
  cfg.world.lidar.channels = 16;
  cfg.world.lidar.azimuth_step_deg = 1.0;
  return cfg;
}

net::WirelessConfig test_wireless() {
  net::WirelessConfig w;
  w.uplink_mbps = 16.0;
  w.downlink_mbps = 32.0;
  return w;
}

MethodMetrics run(Method method, sim::Scenario& sc, double duration = 18.0) {
  RunnerConfig rc = make_runner_config(method, test_wireless());
  rc.duration = duration;
  SystemRunner runner(rc);
  return runner.run(sc);
}

TEST(Integration, SingleAlwaysCrashesOursSurvives) {
  sim::Scenario single_sc = sim::make_unprotected_left_turn(fast_scenario());
  const MethodMetrics single = run(Method::kSingle, single_sc);
  EXPECT_FALSE(single.ego_safe) << "Single must collide in the scripted "
                                   "left-turn conflict";

  sim::Scenario ours_sc = sim::make_unprotected_left_turn(fast_scenario());
  const MethodMetrics ours = run(Method::kOurs, ours_sc);
  EXPECT_TRUE(ours.ego_safe) << "Ours failed to prevent the collision";
  EXPECT_GT(ours.disseminations, 0);
  EXPECT_GT(ours.min_key_distance, single.min_key_distance);
}

TEST(Integration, RedLightScenarioOursSurvives) {
  sim::Scenario single_sc = sim::make_red_light_violation(fast_scenario());
  const MethodMetrics single = run(Method::kSingle, single_sc);
  EXPECT_FALSE(single.ego_safe);

  sim::Scenario ours_sc = sim::make_red_light_violation(fast_scenario());
  const MethodMetrics ours = run(Method::kOurs, ours_sc);
  EXPECT_TRUE(ours.ego_safe);
}

TEST(Integration, PedestrianScenarioOursYields) {
  // Pedestrians are small; resolving one at 30+ m needs a denser sensor
  // than the coarse grid the vehicle tests use.
  sim::ScenarioConfig cfg = fast_scenario();
  cfg.world.lidar.channels = 32;
  cfg.world.lidar.azimuth_step_deg = 0.5;
  sim::Scenario sc = sim::make_occluded_pedestrian(cfg);
  const MethodMetrics ours = run(Method::kOurs, sc);
  EXPECT_TRUE(ours.ego_safe);
  EXPECT_EQ(ours.collisions, 0);
}

TEST(Integration, UplinkBandwidthOrdering) {
  // Ours < EMP < Unlimited (paper Fig. 12a).
  sim::Scenario a = sim::make_unprotected_left_turn(fast_scenario());
  sim::Scenario b = sim::make_unprotected_left_turn(fast_scenario());
  sim::Scenario c = sim::make_unprotected_left_turn(fast_scenario());
  const MethodMetrics ours = run(Method::kOurs, a, 8.0);
  const MethodMetrics emp = run(Method::kEmp, b, 8.0);
  const MethodMetrics unlimited = run(Method::kUnlimited, c, 8.0);
  EXPECT_LT(ours.uplink_mbps, emp.uplink_mbps);
  EXPECT_LT(emp.uplink_mbps, unlimited.uplink_mbps);
  // EMP keeps static structure, so it needs several times Ours' bandwidth,
  // but never exceeds the cap. (Cap saturation shows up at full sensor
  // density in bench/fig12_upload.)
  EXPECT_GT(emp.uplink_mbps, ours.uplink_mbps);
  EXPECT_LE(emp.uplink_mbps, 16.0 + 0.5);
}

TEST(Integration, DisseminationBandwidthOrdering) {
  // Ours << EMP (capped) << Unlimited (paper Fig. 13).
  sim::Scenario a = sim::make_unprotected_left_turn(fast_scenario());
  sim::Scenario b = sim::make_unprotected_left_turn(fast_scenario());
  sim::Scenario c = sim::make_unprotected_left_turn(fast_scenario());
  const MethodMetrics ours = run(Method::kOurs, a, 8.0);
  const MethodMetrics emp = run(Method::kEmp, b, 8.0);
  const MethodMetrics unlimited = run(Method::kUnlimited, c, 8.0);
  EXPECT_LT(ours.downlink_mbps, emp.downlink_mbps + 1e-9);
  EXPECT_LT(ours.downlink_mbps, unlimited.downlink_mbps);
}

TEST(Integration, EmpDetectsFewerObjectsUnderTightUplink) {
  net::WirelessConfig tight;
  tight.uplink_mbps = 3.0;  // starves the EMP blob uploads
  tight.downlink_mbps = 32.0;
  sim::Scenario a = sim::make_unprotected_left_turn(fast_scenario());
  sim::Scenario b = sim::make_unprotected_left_turn(fast_scenario());

  RunnerConfig rc_emp = make_runner_config(Method::kEmp, tight);
  rc_emp.duration = 8.0;
  const MethodMetrics emp = SystemRunner(rc_emp).run(a);

  RunnerConfig rc_ours = make_runner_config(Method::kOurs, tight);
  rc_ours.duration = 8.0;
  const MethodMetrics ours = SystemRunner(rc_ours).run(b);

  EXPECT_LT(emp.avg_objects_detected, ours.avg_objects_detected);
}

TEST(Integration, LatencyBreakdownPopulated) {
  sim::Scenario sc = sim::make_unprotected_left_turn(fast_scenario());
  obs::MetricsRegistry reg;
  RunnerConfig rc = make_runner_config(Method::kOurs, test_wireless());
  rc.duration = 5.0;
  rc.metrics = &reg;
  const MethodMetrics m = SystemRunner(rc).run(sc);
  // Host module times live in the registry (nanosecond samples), one per
  // pipeline frame for each edge module.
  const std::uint64_t frames = reg.counter("frames.pipeline").value();
  EXPECT_GT(reg.histogram("stage.extract").mean(), 0.0);
  for (const char* stage : {"stage.merge", "stage.track", "stage.relevance",
                            "stage.disseminate"}) {
    EXPECT_EQ(reg.histogram(stage).count(), frames) << stage;
  }
  // The decision itself is the cheap part (paper: ~1 ms).
  EXPECT_LT(reg.histogram("stage.disseminate").mean(), 10e6);
  // Simulated transfer delays are results; sim.* holds the same per-frame
  // delays, truncated to whole nanoseconds.
  EXPECT_GE(m.upload_seconds, net::kBaseLatency);
  EXPECT_NEAR(m.upload_seconds, reg.histogram("sim.upload").mean() * 1e-9,
              2e-9);
  EXPECT_NEAR(m.downlink_transfer_seconds,
              reg.histogram("sim.downlink").mean() * 1e-9, 2e-9);
}

TEST(Integration, SafePassageRateComputed) {
  sim::Scenario sc = sim::make_unprotected_left_turn(fast_scenario());
  const MethodMetrics m = run(Method::kOurs, sc);
  EXPECT_GT(m.vehicles_entered, 0);
  EXPECT_GE(m.safe_passage_rate, 0.0);
  EXPECT_LE(m.safe_passage_rate, 1.0);
  EXPECT_EQ(m.vehicles_safe <= m.vehicles_entered, true);
}

TEST(Integration, MethodNames) {
  EXPECT_STREQ(to_string(Method::kSingle), "Single");
  EXPECT_STREQ(to_string(Method::kEmp), "EMP");
  EXPECT_STREQ(to_string(Method::kOurs), "Ours");
  EXPECT_STREQ(to_string(Method::kUnlimited), "Unlimited");
}

TEST(Integration, RunnerWirelessSetsTheEdgeDownlinkBudget) {
  // RunnerConfig::wireless is the one link config: changing it after
  // make_runner_config must shrink the edge's dissemination budget too, not
  // only the runner's transfer delays.
  RunnerConfig rc = make_runner_config(Method::kOurs, test_wireless());
  rc.wireless.downlink_mbps = 0.002;  // 25 B per frame: no message fits
  rc.duration = 18.0;
  sim::Scenario sc = sim::make_unprotected_left_turn(fast_scenario());
  SystemRunner runner(rc);
  EXPECT_EQ(runner.run(sc).disseminations, 0);
}

TEST(Integration, UnlimitedIsUncapped) {
  const RunnerConfig rc = make_runner_config(Method::kUnlimited);
  EXPECT_EQ(rc.method, Method::kUnlimited);
  EXPECT_GT(rc.wireless.uplink_mbps, 1e5);
  EXPECT_GT(rc.wireless.downlink_mbps, 1e5);
  // The other methods keep the given link.
  const RunnerConfig emp = make_runner_config(Method::kEmp, test_wireless());
  EXPECT_EQ(emp.wireless.uplink_mbps, test_wireless().uplink_mbps);
  EXPECT_EQ(emp.wireless.downlink_mbps, test_wireless().downlink_mbps);
}

// RunnerConfig::method alone picks both ends: a config built without
// make_runner_config runs EMP's Voronoi uploads and round-robin edge, not
// Ours' moving-object uploads and relevance scoring.
TEST(Integration, MethodAlonePicksUploadAndDissemination) {
  RunnerConfig rc;
  rc.method = Method::kEmp;
  rc.duration = 3.0;
  obs::MetricsRegistry reg;
  rc.metrics = &reg;
  sim::Scenario sc = sim::make_unprotected_left_turn(fast_scenario());
  SystemRunner(rc).run(sc);
  // Blob uploads: no DBSCAN on the vehicles, re-segmentation at the edge.
  EXPECT_EQ(reg.counter("client.dbscan_distance_tests").value(), 0u);
  EXPECT_GT(reg.counter("edge.dbscan_distance_tests").value(), 0u);
  // No rules or prediction: nothing was snapped to the map.
  EXPECT_EQ(reg.counter("edge.route_projections").value(), 0u);
}

}  // namespace
}  // namespace erpd::edge
