// Scenario regression suite over the fault matrix (ctest label: fault).
//
// Each committed fault case (no faults / 10% / 30% loss / ego blackout /
// burst outage / jitter) runs the closed loop end to end and must
//   (a) complete without ContractViolation,
//   (b) keep the recorded safety metrics inside its committed tolerance
//       band, and
//   (c) actually exercise the degradation machinery (the new MethodMetrics
//       fields are live, not decorative).
// Each case also keeps its per-frame ledgers (edge::FrameTrace) and its
// registry counters, which must agree with each other.
// When ERPD_SCENARIO_JSON is set, the per-case metrics are written there as
// a JSON artifact for CI.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "scenario_harness.hpp"

namespace erpd {
namespace {

/// One case's frame ledgers, as on_frame saw them, and its registry
/// counters at the end of the run.
struct CaseLedgers {
  std::vector<edge::FrameTrace> frames;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

class FaultMatrix : public ::testing::Test {
 protected:
  // The matrix is expensive; run it once and share across assertions.
  static void SetUpTestSuite() {
    results_ = new std::vector<harness::CaseResult>();
    ledgers_ = new std::vector<CaseLedgers>();
    for (const harness::FaultCase& fc : harness::default_fault_matrix()) {
      CaseLedgers& led = ledgers_->emplace_back();
      obs::MetricsRegistry reg;
      results_->push_back(harness::run_case(
          edge::Method::kOurs, fc, 14.0, 42, [&](edge::RunnerConfig& rc) {
            rc.metrics = &reg;
            rc.on_frame = [&led](const edge::FrameTrace& tr) {
              led.frames.push_back(tr);
            };
          }));
      led.counters = reg.counters();
    }
  }
  static void TearDownTestSuite() {
    if (const char* path = std::getenv("ERPD_SCENARIO_JSON")) {
      obs::write_file(
          path, harness::metrics_json(*results_, edge::Method::kOurs, 42));
    }
    delete results_;
    results_ = nullptr;
    delete ledgers_;
    ledgers_ = nullptr;
  }

  static const harness::CaseResult& find(const std::string& name) {
    for (const harness::CaseResult& r : *results_) {
      if (r.fcase.name == name) return r;
    }
    ADD_FAILURE() << "no fault case named " << name;
    static harness::CaseResult dummy;
    return dummy;
  }

  static std::vector<harness::CaseResult>* results_;
  static std::vector<CaseLedgers>* ledgers_;
};

std::vector<harness::CaseResult>* FaultMatrix::results_ = nullptr;
std::vector<CaseLedgers>* FaultMatrix::ledgers_ = nullptr;

// Every frame of every case gives each uplink byte and each selected
// dissemination exactly one fate, and the frame ledgers, summed, are the
// run's registry counters key by key: each ledger is booked exactly once,
// and nothing else books (the world step's occlusion count aside).
TEST_F(FaultMatrix, FrameLedgersCloseAndSumToTheRegistry) {
  std::size_t rows = 0;
  edge::for_each_count(edge::FrameTrace{},
                       [&](const char*, std::uint64_t) { ++rows; });
  for (std::size_t c = 0; c < results_->size(); ++c) {
    const std::string& name = (*results_)[c].fcase.name;
    const CaseLedgers& led = (*ledgers_)[c];
    ASSERT_EQ(led.frames.size(), 140u) << name;
    std::map<std::string, std::uint64_t> summed;
    for (const edge::FrameTrace& tr : led.frames) {
      const edge::UplinkTally& u = tr.up;
      EXPECT_EQ(u.offered_bytes, u.lost_bytes + u.backpressure_bytes +
                                     u.capped_bytes +
                                     u.delivered_pre_fault_bytes)
          << name << " frame " << tr.frame;
      const edge::DownlinkTally& d = tr.down;
      EXPECT_EQ(tr.edge.selected.size(),
                d.lost_msgs + d.corrupted_msgs + d.deadline_miss_msgs +
                    d.delivered_msgs)
          << name << " frame " << tr.frame;
      edge::for_each_count(tr, [&](const char* key, std::uint64_t n) {
        summed[key] += n;
      });
    }
    // One row per key: a key listed twice would be booked twice.
    EXPECT_EQ(summed.size(), rows) << name;
    std::size_t matched = 0;
    for (const auto& [key, value] : led.counters) {
      if (key == "sim.occlusion_ray_tests") continue;  // the world step's
      const auto it = summed.find(key);
      if (it == summed.end()) {
        ADD_FAILURE() << name << ": " << key << " booked outside the ledgers";
        continue;
      }
      EXPECT_EQ(it->second, value) << name << ": " << key;
      ++matched;
    }
    EXPECT_EQ(matched, summed.size()) << name;
  }
}

TEST_F(FaultMatrix, AllCasesStayInsideToleranceBands) {
  for (const harness::CaseResult& r : *results_) {
    const edge::MethodMetrics& m = r.metrics;
    const harness::ToleranceBand& band = r.fcase.band;
    EXPECT_GE(m.conflict_safe_rate, band.min_conflict_safe_rate)
        << r.fcase.name;
    EXPECT_GE(m.safe_passage_rate, band.min_safe_passage_rate)
        << r.fcase.name;
    EXPECT_GE(m.min_key_distance, band.min_key_distance) << r.fcase.name;
    EXPECT_TRUE(m.ego_safe) << r.fcase.name;
  }
}

TEST_F(FaultMatrix, NoFaultCaseReportsZeroFaultMetrics) {
  const edge::MethodMetrics& m = find("no-faults").metrics;
  EXPECT_EQ(m.uplink_loss_ratio, 0.0);
  EXPECT_EQ(m.downlink_deadline_miss_ratio, 0.0);
  EXPECT_GT(m.disseminations, 0);
}

TEST_F(FaultMatrix, LossCasesExerciseDegradation) {
  for (const char* name : {"loss-10", "loss-30"}) {
    const edge::MethodMetrics& m = find(name).metrics;
    EXPECT_GT(m.uplink_loss_ratio, 0.0) << name;
    EXPECT_GT(m.coasted_track_frames, 0) << name;
    EXPECT_GT(m.stale_relevance_frames, 0) << name;
  }
  // 30% nominal Bernoulli loss must land near 30% measured.
  const edge::MethodMetrics& m30 = find("loss-30").metrics;
  EXPECT_NEAR(m30.uplink_loss_ratio, 0.30, 0.10);
  EXPECT_GT(m30.downlink_deadline_miss_ratio, 0.0);
}

TEST_F(FaultMatrix, LossStillBeatsNoSharing) {
  // Even at 30% uplink loss the closed loop must warn the ego; without
  // sharing the scripted conflict always ends in a collision.
  harness::FaultCase single = harness::default_fault_matrix()[2];
  const harness::CaseResult single_run =
      harness::run_case(edge::Method::kSingle, single);
  const edge::MethodMetrics& ours30 = find("loss-30").metrics;
  EXPECT_FALSE(single_run.metrics.ego_safe);
  EXPECT_TRUE(ours30.ego_safe);
  EXPECT_GT(ours30.min_key_distance, single_run.metrics.min_key_distance);
}

TEST_F(FaultMatrix, BlackoutDropsUploadsDuringWindow) {
  const harness::CaseResult& r = find("ego-blackout");
  // The ego stops uploading for 3 s out of 14 s, so offered upload frames
  // shrink relative to the no-fault case.
  const edge::MethodMetrics& clean = find("no-faults").metrics;
  EXPECT_LT(r.metrics.uplink_offered_bytes_per_frame,
            clean.uplink_offered_bytes_per_frame);
  EXPECT_TRUE(r.metrics.ego_safe);
}

TEST_F(FaultMatrix, JitterProducesDeadlineMisses) {
  const edge::MethodMetrics& m = find("jitter").metrics;
  EXPECT_GT(m.downlink_deadline_miss_ratio, 0.0);
  EXPECT_LT(m.downlink_deadline_miss_ratio, 1.0);
}

TEST_F(FaultMatrix, CorruptionCaseQuarantinesTheByzantineVehicle) {
  const harness::CaseResult& r = find("corrupt-5-byzantine");
  // The case resolved exactly one Byzantine background vehicle.
  ASSERT_EQ(r.fcase.fault.byzantine.size(), 1u);
  const edge::MethodMetrics& m = r.metrics;
  // Corrupted wire payloads are caught by the CRC/structure check, the
  // Byzantine teleports by the semantic check, and the repeat offender ends
  // up quarantined — the PR acceptance criterion.
  EXPECT_GT(m.ingest_rejected_crc, 0);
  EXPECT_GT(m.ingest_rejected_semantic, 0);
  EXPECT_GT(m.ingest_quarantined_vehicles, 0);
  // Meanwhile the compliant scripted chain keeps the warning flowing: the
  // band check above already enforces ego_safe and the key-distance floor.
  EXPECT_TRUE(m.ego_safe);
}

TEST_F(FaultMatrix, CoverageFeedbackLossCaseExercisesRedundancy) {
  const edge::MethodMetrics& m = find("coverage-feedback-loss").metrics;
  // The redundancy layer actually engaged: the edge emitted feedback, the
  // 30% lossy downlink dropped some of it, and suppression/delta encoding
  // saved uplink bytes despite the stale coverage claims.
  EXPECT_GT(m.coverage_feedback_msgs, 0);
  EXPECT_GT(m.coverage_feedback_lost_msgs, 0);
  EXPECT_LT(m.coverage_feedback_lost_msgs, m.coverage_feedback_msgs);
  EXPECT_GT(m.uplink_suppressed_bytes_per_frame, 0.0);
  // Redundancy reduces demand relative to the clean run — and must never
  // increase it (suppression and deltas only remove bytes).
  EXPECT_LT(m.uplink_offered_bytes_per_frame,
            find("no-faults").metrics.uplink_offered_bytes_per_frame);
  // The byte fate partition holds in aggregate: per-frame averages of lost +
  // capped never exceed offered.
  EXPECT_LE(m.uplink_lost_bytes_per_frame + m.uplink_capped_bytes_per_frame,
            m.uplink_offered_bytes_per_frame + 1e-9);
  // Safety floor enforced by the band check above; the delta path must not
  // starve detection either.
  EXPECT_GT(m.avg_objects_detected, 0.0);
  EXPECT_TRUE(m.ego_safe);
}

TEST_F(FaultMatrix, OverloadCaseShedsWithoutLosingSafety) {
  const edge::MethodMetrics& m = find("overload-shed").metrics;
  // The 600-point budget sits far below fleet demand, so shedding engages
  // heavily — but it sheds the smallest clouds first, so tracking of the
  // scripted conflict survives (band check enforces the safety floor).
  EXPECT_GT(m.ingest_shed_uploads, 0);
  // Pure overload: nobody misbehaves, so no quarantines or rejections.
  EXPECT_EQ(m.ingest_rejected_crc, 0);
  EXPECT_EQ(m.ingest_rejected_semantic, 0);
  EXPECT_EQ(m.ingest_quarantined_vehicles, 0);
  // Shedding reduces admitted objects relative to the clean run.
  EXPECT_LT(m.avg_objects_detected,
            find("no-faults").metrics.avg_objects_detected);
}

TEST_F(FaultMatrix, OverloadBurstOutageHoldsTheServiceFatePartition) {
  const edge::MethodMetrics& m = find("overload-burst-outage").metrics;
  // Combined stress actually engaged on all three axes: the outage lost
  // upload frames, the point budget shed objects at the guard, and the
  // decode+merge deadline shed or deferred work at admission.
  EXPECT_GT(m.uplink_loss_ratio, 0.0);
  EXPECT_GT(m.ingest_shed_uploads, 0);
  EXPECT_GT(m.service_arrived_objects, 0);
  EXPECT_GT(m.service_deferred_objects + m.service_shed_objects, 0);
  // Exactly-once object fates: everything that entered deadline admission
  // was admitted, shed, or is still parked at run end. (The per-frame
  // partition is ENSURE'd inside the controller; this pins the run-level
  // collapse of the same identity.)
  EXPECT_EQ(m.service_arrived_objects,
            m.service_admitted_objects + m.service_shed_objects +
                m.service_parked_residual);
  // Byte fates stay a partition too, with the backpressure term included.
  EXPECT_LE(m.uplink_lost_bytes_per_frame + m.uplink_capped_bytes_per_frame +
                m.uplink_backpressure_bytes_per_frame,
            m.uplink_offered_bytes_per_frame + 1e-9);
  // Degradation stays graceful: detection thinner than the clean run but
  // alive, and the band check above enforces the PR 3 safety floors.
  EXPECT_GT(m.avg_objects_detected, 0.0);
  EXPECT_LT(m.avg_objects_detected,
            find("no-faults").metrics.avg_objects_detected);
  EXPECT_TRUE(m.ego_safe);
}

}  // namespace
}  // namespace erpd
