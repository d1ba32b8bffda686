// Unit tests for the service-mode edge pipeline (DESIGN.md §17): the
// admission controller's admit/defer/shed fate partition under the deadline
// policy, the drain-cap backpressure fate, and the off-by-default
// bit-identity contract of ServiceConfig.

#include <gtest/gtest.h>

#include <vector>

#include "core/thread_pool.hpp"
#include "edge/service.hpp"
#include "edge/system_runner.hpp"
#include "scenario_harness.hpp"

namespace erpd {
namespace {

/// Restores the auto pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { core::set_thread_count(0); }
};

// ---------------------------------------------------------------------------
// AdmissionController (deadline policy)
// ---------------------------------------------------------------------------

net::UploadFrame service_frame(sim::AgentId vehicle, double timestamp,
                               std::vector<std::size_t> object_points) {
  net::UploadFrame f;
  f.vehicle = vehicle;
  f.timestamp = timestamp;
  f.upload_seq = static_cast<std::uint64_t>(timestamp * 10.0);
  for (const std::size_t pts : object_points) {
    net::ObjectUpload o;
    o.object_granular = true;
    o.centroid_world = {5.0, 0.0, 0.5};
    o.point_count = pts;
    o.bytes = 64;
    f.objects.push_back(o);
  }
  return f;
}

std::size_t total_objects(const std::vector<net::UploadFrame>& frames) {
  std::size_t n = 0;
  for (const net::UploadFrame& f : frames) n += f.objects.size();
  return n;
}

TEST(AdmissionController, ZeroBudgetPassesEverythingThrough) {
  // The deadline cost model with capacity 0: no latency shedding.
  edge::AdmissionController ac({.capacity = 0,
                                .cost_per_point = edge::kCostPerPointNs,
                                .cost_per_object = edge::kCostPerObjectNs,
                                .defer_capacity = edge::kDeferCapacity,
                                .max_defer_frames = edge::kMaxDeferFrames});
  edge::ServiceStats stats;
  const auto out =
      ac.run({service_frame(1, 0.1, {50, 20}), service_frame(2, 0.1, {30})},
             &stats);
  EXPECT_EQ(total_objects(out), 3u);
  EXPECT_EQ(stats.arrived_objects, 3u);
  EXPECT_EQ(stats.admitted_objects, 3u);
  EXPECT_EQ(stats.deferred_objects, 0u);
  EXPECT_EQ(stats.shed_objects, 0u);
  EXPECT_EQ(ac.parked_count(), 0u);
}

TEST(AdmissionController, BudgetShedsSmallestCloudsFirst) {
  edge::AdmissionController ac({.capacity = 13000,
                                .cost_per_point = 100,
                                .cost_per_object = 1000,
                                .defer_capacity = 16,
                                .max_defer_frames = 0});  // shed, no parking
  edge::ServiceStats stats;
  // Costs: 100 pts -> 11000 ns, 50 pts -> 6000 ns, 10 pts -> 2000 ns.
  // Value order admits the 100-point cloud (11000), then denies the
  // 50-point one (6000 > 2000 left) but still re-grants the freed headroom
  // to the 10-point cloud (2000 ns) — FrameBudget's discipline.
  const auto out = ac.run(
      {service_frame(1, 0.1, {10}), service_frame(2, 0.1, {100, 50})},
      &stats);
  EXPECT_EQ(stats.arrived_objects, 3u);
  EXPECT_EQ(stats.admitted_objects, 2u);
  EXPECT_EQ(stats.shed_objects, 1u);
  EXPECT_EQ(stats.admitted_cost, 13000u);
  ASSERT_EQ(total_objects(out), 2u);
  // Both fresh frame skeletons survive (validated poses) even where an
  // object was shed.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].objects.size(), 1u);
  EXPECT_EQ(out[0].objects[0].point_count, 10u);
  EXPECT_EQ(out[1].objects.size(), 1u);
  EXPECT_EQ(out[1].objects[0].point_count, 100u);
}

TEST(AdmissionController, DeniedWorkIsParkedThenReadmittedWithPriority) {
  // 12000 ns fits one 100-point object per frame.
  edge::AdmissionController ac({.capacity = 12000,
                                .cost_per_point = 100,
                                .cost_per_object = 1000,
                                .defer_capacity = 16,
                                .max_defer_frames = 3});

  // Frame 1: two equally expensive objects from two vehicles; vehicle 1 wins
  // the tie-break, vehicle 2's object is deferred.
  edge::ServiceStats s1;
  ac.run({service_frame(1, 0.1, {100}), service_frame(2, 0.1, {100})}, &s1);
  EXPECT_EQ(s1.admitted_objects, 1u);
  EXPECT_EQ(s1.deferred_objects, 1u);
  EXPECT_EQ(ac.parked_count(), 1u);

  // Frame 2: the parked object (age 1) outranks an equally big fresh one and
  // is re-admitted first; the fresh one parks in turn.
  edge::ServiceStats s2;
  const auto out2 = ac.run({service_frame(1, 0.2, {100})}, &s2);
  EXPECT_EQ(s2.carried_objects, 1u);
  EXPECT_EQ(s2.admitted_objects, 1u);
  EXPECT_EQ(s2.deferred_objects, 1u);
  EXPECT_EQ(ac.parked_count(), 1u);
  // The re-admitted parked frame is emitted before the fresh skeleton so
  // fresh poses win in the edge's fleet registry.
  ASSERT_EQ(out2.size(), 2u);
  EXPECT_EQ(out2[0].vehicle, 2);
  EXPECT_EQ(out2[0].objects.size(), 1u);
  EXPECT_EQ(out2[1].vehicle, 1);
  EXPECT_TRUE(out2[1].objects.empty());
}

TEST(AdmissionController, DeferralExpiresIntoShedAtMaxDeferFrames) {
  edge::AdmissionController ac({.capacity = 12000,
                                .cost_per_point = 100,
                                .cost_per_object = 1000,
                                .defer_capacity = 16,
                                .max_defer_frames = 2});

  // Each frame two fresh 100-point objects arrive but the budget fits only
  // one, so the backlog grows. Deferrals re-enter one frame older; once the
  // oldest loser reaches max_defer_frames it can no longer be parked and is
  // shed.
  std::size_t shed = 0;
  std::size_t arrived = 0;
  std::size_t admitted = 0;
  for (int frame = 0; frame < 6; ++frame) {
    edge::ServiceStats s;
    const double t = 0.1 * (frame + 1);
    ac.run({service_frame(1, t, {100, 100})}, &s);
    ASSERT_EQ(s.arrived_objects + s.carried_objects,
              s.admitted_objects + s.deferred_objects + s.shed_objects)
        << "frame " << frame;
    shed += s.shed_objects;
    arrived += s.arrived_objects;
    admitted += s.admitted_objects;
  }
  EXPECT_GT(shed, 0u);  // expiry engaged
  // Run-level identity: arrived == admitted + shed + still parked.
  EXPECT_EQ(arrived, admitted + shed + ac.parked_count());
}

TEST(AdmissionController, ParkingLotCapacityOverflowsIntoShed) {
  // 1000 ns: nothing with points fits.
  edge::AdmissionController ac({.capacity = 1000,
                                .cost_per_point = 100,
                                .cost_per_object = 1000,
                                .defer_capacity = 2,
                                .max_defer_frames = 3});
  edge::ServiceStats stats;
  ac.run({service_frame(1, 0.1, {10, 10, 10, 10})}, &stats);
  EXPECT_EQ(stats.arrived_objects, 4u);
  EXPECT_EQ(stats.admitted_objects, 0u);
  EXPECT_EQ(stats.deferred_objects, 2u);  // defer_capacity
  EXPECT_EQ(stats.shed_objects, 2u);      // overflow sheds
  EXPECT_EQ(ac.parked_count(), 2u);
}

TEST(AdmissionController, StatsTallyEveryFate) {
  edge::AdmissionController ac({.capacity = 12000,
                                .cost_per_point = 100,
                                .cost_per_object = 1000,
                                .defer_capacity = 16,
                                .max_defer_frames = 0});
  edge::ServiceStats stats;
  ac.run({service_frame(1, 0.1, {100, 100})}, &stats);
  EXPECT_EQ(stats.arrived_objects, 2u);
  EXPECT_EQ(stats.admitted_objects, 1u);
  EXPECT_EQ(stats.shed_objects, 1u);
  EXPECT_EQ(stats.admitted_cost, 11000u);
  EXPECT_GT(stats.denied_cost, 0u);
}

// ---------------------------------------------------------------------------
// Closed loop: the off-by-default contract and the service-on smoke.
// ---------------------------------------------------------------------------

std::uint64_t closed_loop_fingerprint(const edge::ServiceConfig& service) {
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
  rc.duration = 3.0;
  rc.service = service;
  edge::SystemRunner runner(rc);
  return harness::metrics_fingerprint(runner.run(sc));
}

TEST(ServiceMode, DisabledConfigIsBitIdenticalWhateverTheKnobsSay) {
  PoolGuard guard;
  core::set_thread_count(1);
  const std::uint64_t ref = closed_loop_fingerprint(edge::ServiceConfig{});
  // enabled=false must gate every other setting: junk values change nothing.
  edge::ServiceConfig junk;
  junk.enabled = false;
  junk.queue_drain_max = 1;
  junk.decode_merge_budget_us = 1;
  EXPECT_EQ(closed_loop_fingerprint(junk), ref);
}

TEST(ServiceMode, EnabledClosedLoopHoldsTheRunLevelFateIdentity) {
  PoolGuard guard;
  core::set_thread_count(2);
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
  rc.duration = 3.0;
  rc.service.enabled = true;
  rc.service.decode_merge_budget_us = 60;
  edge::SystemRunner runner(rc);
  const edge::MethodMetrics m = runner.run(sc);
  EXPECT_GT(m.service_arrived_objects, 0);
  EXPECT_GT(m.service_admitted_objects, 0);
  EXPECT_EQ(m.service_arrived_objects,
            m.service_admitted_objects + m.service_shed_objects +
                m.service_parked_residual);
}

// Drain-cap backpressure in the closed loop: a drain cap below the fleet
// size must drop whole upload frames as the backpressure fate, and those
// bytes must stay inside the offered-byte partition (the runner ENSUREs the
// partition every frame; uplink_drop_ratio <= 1 would catch a leak too).
TEST(ServiceMode, DrainCapProducesBackpressureFates) {
  PoolGuard guard;
  core::set_thread_count(2);
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
  rc.duration = 3.0;
  rc.service.enabled = true;
  rc.service.queue_drain_max = 2;  // fleet is ~6 connected vehicles
  edge::SystemRunner runner(rc);
  const edge::MethodMetrics m = runner.run(sc);
  EXPECT_GT(m.service_backpressure_uploads, 0);
  EXPECT_GT(m.uplink_backpressure_bytes_per_frame, 0.0);
  EXPECT_LE(m.uplink_backpressure_bytes_per_frame,
            m.uplink_offered_bytes_per_frame);
}

}  // namespace
}  // namespace erpd
