// Unit tests for the edge ingest admission layer (DESIGN.md §12): semantic
// frame validation, strike accumulation into exponential-backoff quarantine,
// wire-payload validation via pc::try_decode, the point-budget stage's
// deterministic overload shedding — plus the end-to-end exactly-once
// downlink fate accounting the layer's counters rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/check.hpp"
#include "edge/edge_server.hpp"
#include "edge/ingest_guard.hpp"
#include "edge/system_runner.hpp"
#include "obs/metrics.hpp"
#include "pointcloud/encoding.hpp"
#include "scenario_harness.hpp"

namespace erpd::edge {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

net::UploadFrame make_frame(sim::AgentId vehicle, double timestamp,
                            geom::Vec2 position, std::size_t objects = 1,
                            std::size_t points_per_object = 10) {
  net::UploadFrame f;
  f.vehicle = vehicle;
  f.timestamp = timestamp;
  f.pose.position = {position, 0.0};
  for (std::size_t i = 0; i < objects; ++i) {
    net::ObjectUpload o;
    o.centroid_world = {position.x + 5.0, position.y, 0.5};
    o.point_count = points_per_object;
    o.bytes = 64;
    f.objects.push_back(o);
  }
  return f;
}

IngestConfig enabled_config() {
  IngestConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(IngestConfig, ValidateRejectsBadValues) {
  IngestConfig cfg;
  cfg.max_pose_speed = 0.0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.max_abs_coord = -1.0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.strike_threshold = 0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.quarantine_base = 2.0;
  cfg.quarantine_max = 1.0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  EXPECT_NO_THROW(IngestConfig{}.validate());
}

TEST(IngestGuard, DisabledGuardWithoutWirePayloadsNeverRuns) {
  IngestGuard guard;  // default: disabled
  std::vector<net::UploadFrame> uploads = {make_frame(1, 0.1, {0.0, 0.0})};
  EXPECT_FALSE(guard.should_run(uploads));
  // Even garbage passes through untouched when the guard should not run —
  // that is the disabled-path bit-identity contract enforced by the caller.
  uploads.push_back(make_frame(2, kNan, {kNan, 0.0}));
  EXPECT_FALSE(guard.should_run(uploads));
}

TEST(IngestGuard, WirePayloadForcesValidationEvenWhenDisabled) {
  IngestGuard guard;  // disabled
  pc::PointCloud cloud;
  cloud.push_back({1.0, 2.0, 0.5});
  cloud.push_back({1.5, 2.5, 0.6});

  std::vector<net::UploadFrame> uploads = {make_frame(3, 0.1, {0.0, 0.0}, 2)};
  uploads[0].objects[0].wire = pc::encode(cloud);
  uploads[0].objects[0].wire_present = true;
  uploads[0].objects[1].wire = pc::encode(cloud);
  uploads[0].objects[1].wire.bytes[5] ^= 0x40;  // break the checksum
  uploads[0].objects[1].wire_present = true;
  EXPECT_TRUE(guard.should_run(uploads));

  IngestStats stats;
  const auto admitted = guard.admit(uploads, 0.2, &stats);
  ASSERT_EQ(admitted.size(), 1u);
  // The valid buffer decoded: payload replaced by the decoded cloud, wire
  // cleared. The corrupted one was dropped and billed as a CRC rejection.
  ASSERT_EQ(admitted[0].objects.size(), 1u);
  EXPECT_FALSE(admitted[0].objects[0].wire_present);
  EXPECT_EQ(admitted[0].objects[0].cloud_world.size(), cloud.size());
  EXPECT_EQ(stats.rejected_crc, 1u);
  EXPECT_EQ(stats.rejected_semantic, 0u);
}

TEST(IngestGuard, RejectsNonFinitePoseAndTimestamp) {
  IngestGuard guard(enabled_config());
  IngestStats stats;
  std::vector<net::UploadFrame> uploads = {
      make_frame(1, 0.1, {kNan, 0.0}),            // NaN pose
      make_frame(2, kNan, {0.0, 0.0}),            // NaN timestamp
      make_frame(3, 10.0, {0.0, 0.0}),            // stamped far in the future
      make_frame(4, 0.1, {5000.0, 0.0}),          // outside map bounds
      make_frame(5, 0.1, {0.0, 0.0}),             // clean
  };
  const auto admitted = guard.admit(uploads, 0.2, &stats);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].vehicle, 5);
  EXPECT_EQ(stats.rejected_semantic, 4u);
}

TEST(IngestGuard, RejectsTimestampRegressionAndDuplicateInBatch) {
  IngestGuard guard(enabled_config());
  IngestStats stats;
  // Frame at t=0.1 accepted, then a replayed older/equal timestamp rejected.
  EXPECT_EQ(guard.admit({make_frame(1, 0.1, {0.0, 0.0})}, 0.1, &stats).size(),
            1u);
  EXPECT_EQ(guard.admit({make_frame(1, 0.1, {0.1, 0.0})}, 0.2, &stats).size(),
            0u);
  EXPECT_EQ(stats.rejected_semantic, 1u);
  // Two frames from the same sender inside one batch: the second is a
  // duplication artifact.
  stats = {};
  const auto admitted = guard.admit(
      {make_frame(1, 0.3, {0.2, 0.0}), make_frame(1, 0.35, {0.2, 0.0})}, 0.4,
      &stats);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(stats.rejected_semantic, 1u);
}

TEST(IngestGuard, RejectsImplausiblePoseJump) {
  IngestGuard guard(enabled_config());
  IngestStats stats;
  EXPECT_EQ(guard.admit({make_frame(1, 0.1, {0.0, 0.0})}, 0.1, &stats).size(),
            1u);
  // 500 m in 0.1 s is 5000 m/s — far beyond max_pose_speed.
  EXPECT_EQ(guard.admit({make_frame(1, 0.2, {500.0, 0.0})}, 0.2, &stats).size(),
            0u);
  EXPECT_EQ(stats.rejected_semantic, 1u);
  // A plausible move from the last *accepted* position is fine.
  EXPECT_EQ(guard.admit({make_frame(1, 0.3, {1.0, 0.0})}, 0.3, &stats).size(),
            1u);
}

TEST(IngestGuard, RejectsStructuralCapViolations) {
  IngestConfig cfg = enabled_config();
  cfg.max_objects_per_frame = 2;
  cfg.max_points_per_frame = 100;
  IngestGuard guard(cfg);
  IngestStats stats;
  const auto admitted = guard.admit(
      {
          make_frame(1, 0.1, {0.0, 0.0}, /*objects=*/3),   // too many objects
          make_frame(2, 0.1, {0.0, 0.0}, 2, /*points=*/60),  // 120 points
          make_frame(3, 0.1, {0.0, 0.0}, 2, 50),             // exactly at cap
      },
      0.2, &stats);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].vehicle, 3);
  EXPECT_EQ(stats.rejected_semantic, 2u);
}

TEST(IngestGuard, OutOfBoundsObjectIsDroppedButFrameSurvives) {
  IngestGuard guard(enabled_config());
  IngestStats stats;
  net::UploadFrame f = make_frame(1, 0.1, {0.0, 0.0}, 2);
  f.objects[1].centroid_world = {9999.0, 0.0, 0.5};
  const auto admitted = guard.admit({f}, 0.2, &stats);
  // The validated pose is still useful to the fleet registry, so the frame
  // is admitted with the offending object stripped.
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].objects.size(), 1u);
  EXPECT_EQ(stats.rejected_semantic, 1u);
}

TEST(IngestGuard, StrikesTriggerQuarantineWithExponentialBackoff) {
  IngestConfig cfg = enabled_config();
  cfg.strike_threshold = 3;
  cfg.quarantine_base = 1.0;
  cfg.quarantine_max = 16.0;
  IngestGuard guard(cfg);
  IngestStats stats;

  // Three offending frames: the third strike starts a quarantine.
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    t += 0.1;
    guard.admit({make_frame(7, t, {kNan, 0.0})}, t, &stats);
  }
  EXPECT_EQ(stats.quarantine_events, 1u);
  EXPECT_TRUE(guard.quarantined(7, t + 0.5));
  EXPECT_TRUE(guard.quarantined(7, t + 0.99));
  EXPECT_FALSE(guard.quarantined(7, t + 1.0));  // base window over

  // While quarantined, even clean frames are dropped at the gate.
  const auto during =
      guard.admit({make_frame(7, t + 0.5, {0.0, 0.0})}, t + 0.5, &stats);
  EXPECT_TRUE(during.empty());
  EXPECT_EQ(stats.quarantine_dropped, 1u);

  // After readmission, three more strikes double the window (2 s).
  double t2 = t + 1.0;
  for (int i = 0; i < 3; ++i) {
    t2 += 0.1;
    guard.admit({make_frame(7, t2, {kNan, 0.0})}, t2, &stats);
  }
  EXPECT_EQ(stats.quarantine_events, 2u);
  EXPECT_TRUE(guard.quarantined(7, t2 + 1.5));
  EXPECT_FALSE(guard.quarantined(7, t2 + 2.0));

  // Other vehicles are unaffected throughout.
  EXPECT_FALSE(guard.quarantined(8, t2 + 1.0));
}

// Regression: the backoff ladder must double exactly quarantine_base ->
// quarantine_max and then saturate — a perpetual offender sits at the max
// window forever, never beyond it, no matter how many quarantines accumulate.
TEST(IngestGuard, QuarantineBackoffSaturatesAtMax) {
  IngestConfig cfg = enabled_config();
  cfg.strike_threshold = 1;  // quarantine on every offense
  cfg.quarantine_base = 1.0;
  cfg.quarantine_max = 4.0;
  IngestGuard guard(cfg);
  IngestStats stats;

  // Expected windows: 1, 2, 4, then 4 forever (saturated).
  const double expected[] = {1.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0};
  double t = 0.1;
  for (const double window : expected) {
    guard.admit({make_frame(7, t, {kNan, 0.0})}, t, &stats);
    EXPECT_TRUE(guard.quarantined(7, t + window - 0.01)) << "window " << window;
    EXPECT_FALSE(guard.quarantined(7, t + window)) << "window " << window;
    t += window + 0.1;  // re-offend just after readmission
  }
  EXPECT_EQ(stats.quarantine_events, std::size(expected));
}

// Regression: a clean frame admitted after the quarantine window expires
// resets the ladder, so the next quarantine starts at quarantine_base again
// (the readmission contract documented in ingest_guard.hpp).
TEST(IngestGuard, CleanReadmissionResetsBackoff) {
  IngestConfig cfg = enabled_config();
  cfg.strike_threshold = 1;
  cfg.quarantine_base = 1.0;
  cfg.quarantine_max = 4.0;
  IngestGuard guard(cfg);
  IngestStats stats;

  // Climb the ladder to a 2 s window.
  guard.admit({make_frame(7, 0.1, {kNan, 0.0})}, 0.1, &stats);  // 1 s
  guard.admit({make_frame(7, 1.2, {kNan, 0.0})}, 1.2, &stats);  // 2 s
  EXPECT_FALSE(guard.quarantined(7, 3.2));

  // One clean frame after readmission wipes the reputation...
  IngestStats clean_stats;
  const auto admitted =
      guard.admit({make_frame(7, 3.3, {0.0, 0.0})}, 3.3, &clean_stats);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(clean_stats.quarantine_dropped, 0u);

  // ...so the next offense starts over at the 1 s base window, not the 4 s
  // the ladder would otherwise have reached.
  guard.admit({make_frame(7, 3.4, {kNan, 0.0})}, 3.4, &stats);
  EXPECT_TRUE(guard.quarantined(7, 4.39));
  EXPECT_FALSE(guard.quarantined(7, 4.4));
}

TEST(IngestGuard, CleanFramesDecayStrikes) {
  IngestConfig cfg = enabled_config();
  cfg.strike_threshold = 3;
  cfg.strike_decay = 1.0;  // one clean frame forgives one strike
  IngestGuard guard(cfg);
  IngestStats stats;
  // Offense, clean, offense, clean, ... never reaches three live strikes.
  double t = 0.0;
  for (int i = 0; i < 6; ++i) {
    t += 0.1;
    const bool offend = (i % 2 == 0);
    guard.admit({make_frame(9, offend ? kNan : t, {0.0, 0.0})}, t, &stats);
  }
  EXPECT_EQ(stats.quarantine_events, 0u);
  EXPECT_FALSE(guard.quarantined(9, t));
}

// The ingest point budget is the admission controller under the point
// policy (cost = points, no deferral); EdgeServer runs it right after the
// guard.
TEST(PointStage, SheddingKeepsBiggestCloudsAndIsDeterministic) {
  IngestConfig cfg = enabled_config();
  cfg.point_budget_per_frame = 105;
  AdmissionController a(point_budget_policy(cfg));
  AdmissionController b(point_budget_policy(cfg));
  ServiceStats sa;
  ServiceStats sb;

  std::vector<net::UploadFrame> uploads = {
      make_frame(1, 0.1, {0.0, 0.0}, 1, 60),
      make_frame(2, 0.1, {10.0, 0.0}, 1, 40),
      make_frame(3, 0.1, {20.0, 0.0}, 1, 30),
      make_frame(4, 0.1, {30.0, 0.0}, 1, 5),
  };
  const auto ra = a.run(uploads, &sa);
  // Greedy by size under a 105-point budget: keep 60 and 40; 30 no longer
  // fits, but the 5-point cloud still does.
  ASSERT_EQ(ra.size(), 4u);
  EXPECT_EQ(ra[0].objects.size(), 1u);
  EXPECT_EQ(ra[1].objects.size(), 1u);
  EXPECT_EQ(ra[2].objects.size(), 0u);  // shed
  EXPECT_EQ(ra[3].objects.size(), 1u);
  EXPECT_EQ(sa.shed_objects, 1u);

  // Bit-identical on a replay.
  const auto rb = b.run(uploads, &sb);
  ASSERT_EQ(rb.size(), ra.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(rb[i].objects.size(), ra[i].objects.size()) << i;
  }
  EXPECT_EQ(sb.shed_objects, sa.shed_objects);

  // Equal-size clouds where only one fits: the lower vehicle id wins even
  // though it arrived second (biggest first, then vehicle ascending).
  ServiceStats tie;
  const auto rt = a.run({make_frame(8, 0.2, {0.0, 0.0}, 1, 60),
                         make_frame(7, 0.2, {10.0, 0.0}, 1, 60)},
                        &tie);
  ASSERT_EQ(rt.size(), 2u);
  EXPECT_EQ(rt[0].objects.size(), 0u);  // vehicle 8 shed
  EXPECT_EQ(rt[1].objects.size(), 1u);  // vehicle 7 kept
  EXPECT_EQ(tie.shed_objects, 1u);
}

TEST(PointStage, NoSheddingWithinBudget) {
  IngestConfig cfg = enabled_config();
  cfg.point_budget_per_frame = 1000;
  AdmissionController stage(point_budget_policy(cfg));
  ServiceStats stats;
  const auto admitted =
      stage.run({make_frame(1, 0.1, {0.0, 0.0}, 3, 50)}, &stats);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].objects.size(), 3u);
  EXPECT_EQ(stats.shed_objects, 0u);
}

TEST(IngestGuard, StatsTallyEveryFate) {
  IngestConfig cfg = enabled_config();
  cfg.strike_threshold = 1;  // quarantine on the first offense
  IngestGuard guard(cfg);
  IngestStats stats;
  guard.admit({make_frame(1, 0.1, {kNan, 0.0})}, 0.1, &stats);
  guard.admit({make_frame(1, 0.3, {0.0, 0.0})}, 0.3, &stats);  // quarantined
  EXPECT_EQ(stats.rejected_semantic, 1u);
  EXPECT_EQ(stats.quarantine_events, 1u);
  EXPECT_EQ(stats.quarantine_dropped, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end fate accounting: with loss, corruption, and a deadline all
// active on the downlink, every selected dissemination gets exactly one
// fate — lost, corrupted, late, or delivered — and the four counters sum
// to the number of selected messages. This is the regression test for the
// double-billing bug where lost messages also counted as deadline misses.
// ---------------------------------------------------------------------------

TEST(DownlinkAccounting, EveryMessageBilledExactlyOnce) {
  harness::FaultCase fc;
  fc.fault.seed = 0xacc7;
  fc.fault.downlink_loss = 0.15;
  fc.fault.downlink_corruption = 0.15;
  fc.fault.jitter_mean = 0.02;
  fc.fault.downlink_deadline = 0.050;

  RunnerConfig rc = harness::make_fault_runner(Method::kOurs, fc);
  rc.duration = 6.0;
  obs::MetricsRegistry reg;
  rc.metrics = &reg;
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  SystemRunner runner(rc);
  const MethodMetrics m = runner.run(sc);

  const std::uint64_t lost = reg.counter("net.downlink_lost_msgs").value();
  const std::uint64_t corrupted =
      reg.counter("net.downlink_corrupted_msgs").value();
  const std::uint64_t late = reg.counter("net.downlink_deadline_miss").value();
  const std::uint64_t delivered = reg.counter("diss.delivered_msgs").value();
  const std::uint64_t selected = static_cast<std::uint64_t>(m.disseminations);

  // Each fate actually occurred under this schedule...
  EXPECT_GT(lost, 0u);
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(late, 0u);
  EXPECT_GT(delivered, 0u);
  // ...and the fates partition the selected set exactly.
  EXPECT_EQ(lost + corrupted + late + delivered, selected);
  EXPECT_DOUBLE_EQ(m.downlink_deadline_miss_ratio,
                   static_cast<double>(lost + corrupted + late) /
                       static_cast<double>(selected));
}

}  // namespace
}  // namespace erpd::edge
