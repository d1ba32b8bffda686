// Unit tests for the observability layer (DESIGN.md §11): histogram bucket
// semantics, registry merge determinism, thread-count invariance of counter
// totals, the golden export schema, and the recording-never-perturbs-the-
// simulation contract.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/thread_pool.hpp"
#include "edge/metrics_io.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scenario_harness.hpp"

namespace erpd {
namespace {

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exact zeros; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(7), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(8), 4u);
  EXPECT_EQ(obs::Histogram::bucket_index(~std::uint64_t{0}),
            obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucket_lower(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_lower(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_lower(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_lower(3), 4u);
}

TEST(Histogram, RecordAndStats) {
  obs::Histogram h;
  h.record(0);
  h.record(0);
  h.record(6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 6u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  // Two thirds of the samples are exact zeros; quantile is exact there.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  // Nearest rank is ceil(q * n): p99 of {1, 1000} is 1000 and p50 of
  // {1, 100, 10000} is 100, so each lands in that sample's bucket.
  obs::Histogram two, three;
  for (const std::uint64_t v : {1, 1000}) two.record(v);
  for (const std::uint64_t v : {1, 100, 10000}) three.record(v);
  EXPECT_GE(two.quantile(0.99), 512.0);  // bucket [512, 1024)
  EXPECT_LE(two.quantile(0.99), 1024.0);
  EXPECT_GE(three.quantile(0.5), 64.0);  // bucket [64, 128)
  EXPECT_LE(three.quantile(0.5), 128.0);
}

void fill_shard(obs::MetricsRegistry& r, std::uint64_t a, std::uint64_t b) {
  r.counter("c.x").add(a);
  r.counter("c.y").add(b);
  r.histogram("h").record(a);
  r.histogram("h").record(b);
}

void expect_same_registry(const obs::MetricsRegistry& lhs,
                          const obs::MetricsRegistry& rhs) {
  EXPECT_EQ(lhs.counters(), rhs.counters());
  const auto lh = lhs.histograms();
  const auto rh = rhs.histograms();
  ASSERT_EQ(lh.size(), rh.size());
  for (std::size_t i = 0; i < lh.size(); ++i) {
    EXPECT_EQ(lh[i].first, rh[i].first);
    EXPECT_EQ(lh[i].second->count(), rh[i].second->count());
    EXPECT_EQ(lh[i].second->sum(), rh[i].second->sum());
    for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
      EXPECT_EQ(lh[i].second->bucket_count(b), rh[i].second->bucket_count(b));
    }
  }
}

TEST(Registry, MergeIsOrderInvariant) {
  obs::MetricsRegistry s1, s2, s3;
  fill_shard(s1, 1, 10);
  fill_shard(s2, 2, 20);
  fill_shard(s3, 3, 30);

  obs::MetricsRegistry fwd, rev;
  fwd.merge(s1);
  fwd.merge(s2);
  fwd.merge(s3);
  rev.merge(s3);
  rev.merge(s2);
  rev.merge(s1);
  expect_same_registry(fwd, rev);
  EXPECT_EQ(fwd.counter("c.x").value(), 6u);
  EXPECT_EQ(fwd.counter("c.y").value(), 60u);
  EXPECT_EQ(fwd.histogram("h").count(), 6u);
}

TEST(Registry, MergedGaugeKeepsOperandValueWhenSet) {
  obs::MetricsRegistry base, shard;
  base.gauge("g").set(1.0);
  shard.gauge("g");  // registered but never set: must not clobber
  base.merge(shard);
  EXPECT_DOUBLE_EQ(base.gauge("g").value(), 1.0);
  shard.gauge("g").set(2.0);
  base.merge(shard);
  EXPECT_DOUBLE_EQ(base.gauge("g").value(), 2.0);
}

TEST(Registry, CounterTotalsIdenticalAcrossThreadCounts) {
  const auto totals = [](std::size_t threads) {
    core::set_thread_count(threads);
    obs::MetricsRegistry reg;
    obs::Counter& c = reg.counter("work.items");
    obs::Histogram& h = reg.histogram("work.weight");
    core::parallel_for(1000, 16, [&](std::size_t i) {
      c.add(i);
      h.record(i % 17);
    });
    return std::pair{c.value(), h.sum()};
  };
  const auto t1 = totals(1);
  const auto t2 = totals(2);
  const auto t8 = totals(8);
  core::set_thread_count(0);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_EQ(t1.first, 1000u * 999u / 2u);
}

TEST(StageSpan, FillsSlotAndHistogram) {
  obs::MetricsRegistry reg;
  double wall = -1.0;
  { obs::StageSpan span(&reg, "stage.test", &wall); }
  EXPECT_GE(wall, 0.0);
  EXPECT_EQ(reg.histogram("stage.test").count(), 1u);
}

TEST(StageSpan, NullRegistryStillFillsSlot) {
  double wall = -1.0;
  { obs::StageSpan span(nullptr, "stage.test", &wall); }
  EXPECT_GE(wall, 0.0);
}

TEST(StageSpan, StopIsIdempotent) {
  obs::MetricsRegistry reg;
  obs::StageSpan span(&reg, "stage.test");
  const double first = span.stop();
  EXPECT_EQ(span.stop(), first);
  EXPECT_EQ(reg.histogram("stage.test").count(), 1u);
}

// The golden schema: a silent rename or reorder of an exported key is a
// breaking change for every downstream consumer of the JSON artifacts, so
// the expected key lists are committed here verbatim.
TEST(Schema, MethodMetricsKeysMatchGolden) {
  const std::vector<std::string_view> golden = {
      "vehicles_entered",
      "vehicles_safe",
      "safe_passage_rate",
      "conflict_safe_rate",
      "ego_safe",
      "follower_safe",
      "follower_min_gap",
      "collisions",
      "min_key_distance",
      "uplink_mbps",
      "downlink_mbps",
      "uplink_bytes_per_frame",
      "downlink_bytes_per_frame",
      "uplink_offered_bytes_per_frame",
      "uplink_drop_ratio",
      "avg_objects_detected",
      "e2e_latency",
      "extraction_seconds",
      "upload_seconds",
      "merge_seconds",
      "track_predict_seconds",
      "dissemination_decision_seconds",
      "downlink_transfer_seconds",
      "delivered_relevance",
      "disseminations",
      "uplink_loss_ratio",
      "downlink_deadline_miss_ratio",
      "coasted_track_frames",
      "stale_relevance_frames",
      "ingest_rejected_crc",
      "ingest_rejected_semantic",
      "ingest_quarantined_vehicles",
      "ingest_shed_uploads",
      "uplink_suppressed_bytes_per_frame",
      "uplink_capped_bytes_per_frame",
      "uplink_lost_bytes_per_frame",
      "coverage_feedback_msgs",
      "coverage_feedback_lost_msgs",
      "uplink_backpressure_bytes_per_frame",
      "service_backpressure_uploads",
      "service_arrived_objects",
      "service_admitted_objects",
      "service_deferred_objects",
      "service_shed_objects",
      "service_parked_residual",
  };
  EXPECT_EQ(edge::method_metrics_keys(), golden);
}

TEST(Schema, FrameTraceKeysMatchGolden) {
  const std::vector<std::string_view> golden = {
      "frame",
      "sensing_wall_seconds",
      "extract_max_seconds",
      "merge_seconds",
      "track_relevance_seconds",
      "dissemination_seconds",
  };
  EXPECT_EQ(edge::frame_trace_keys(), golden);
}

TEST(Schema, ExportedJsonCarriesEveryKey) {
  obs::JsonWriter w;
  w.begin_object();
  edge::append_method_metrics(w, edge::MethodMetrics{});
  w.end_object();
  for (const std::string_view k : edge::method_metrics_keys()) {
    EXPECT_NE(w.str().find("\"" + std::string(k) + "\":"), std::string::npos)
        << k;
  }
}

TEST(Manifest, FingerprintIsStableAndSensitive) {
  const edge::RunnerConfig a = edge::make_runner_config(edge::Method::kOurs);
  edge::RunnerConfig b = a;
  b.duration += 1.0;
  const obs::RunManifest ma = edge::make_manifest(a, "s", 42);
  EXPECT_EQ(ma.config_fingerprint,
            edge::make_manifest(a, "s", 42).config_fingerprint);
  EXPECT_NE(ma.config_fingerprint,
            edge::make_manifest(b, "s", 42).config_fingerprint);
  EXPECT_EQ(ma.method, std::string("Ours"));
  EXPECT_EQ(ma.seed, 42u);
  EXPECT_FALSE(ma.git_sha.empty());
}

TEST(Export, CsvCarriesManifestAndCounters) {
  obs::MetricsRegistry reg;
  reg.counter("c.x").add(7);
  obs::RunManifest mf;
  mf.scenario = "test";
  mf.seed = 1;
  mf.method = "Ours";
  const std::string csv = obs::to_csv(reg, mf);
  EXPECT_NE(csv.find("manifest,scenario,test"), std::string::npos);
  EXPECT_NE(csv.find("counter,c.x,7"), std::string::npos);
}

// The determinism contract end to end, plus registry reuse. Attaching a
// registry must not change a single simulated metric. A registry reused
// across two runs ends with their sum, while each run's MethodMetrics is
// derived from its own run registry and so equals the same run done alone.
TEST(ObsContract, RegistryNeverPerturbsAndReuseSumsRuns) {
  const auto run = [](std::uint64_t seed, obs::MetricsRegistry* reg) {
    sim::Scenario sc =
        sim::make_unprotected_left_turn(harness::default_intersection(seed));
    edge::RunnerConfig rc =
        harness::make_fault_runner(edge::Method::kOurs, harness::FaultCase{});
    rc.duration = 3.0;
    rc.metrics = reg;
    return edge::SystemRunner(rc).run(sc);
  };
  obs::MetricsRegistry alone_a, alone_b, shared;
  const edge::MethodMetrics bare = run(42, nullptr);
  const edge::MethodMetrics a = run(42, &alone_a);
  const edge::MethodMetrics b = run(7, &alone_b);
  const edge::MethodMetrics a2 = run(42, &shared);
  const edge::MethodMetrics b2 = run(7, &shared);

  const auto fp = harness::metrics_fingerprint;
  EXPECT_EQ(fp(bare), fp(a));
  ASSERT_NE(fp(a), fp(b));
  for (const auto& [alone, reused] : {std::pair{&a, &a2}, std::pair{&b, &b2}}) {
    EXPECT_EQ(fp(*alone), fp(*reused));
    EXPECT_EQ(alone->uplink_mbps, reused->uplink_mbps);
    EXPECT_EQ(alone->downlink_mbps, reused->downlink_mbps);
  }
  ASSERT_EQ(shared.counters().size(), alone_a.counters().size());
  for (const auto& [name, v] : shared.counters()) {
    EXPECT_EQ(v, alone_a.counter(name).value() + alone_b.counter(name).value())
        << name;
  }
  for (const auto& [name, h] : shared.histograms()) {
    EXPECT_EQ(h->count(), alone_a.histogram(name).count() +
                              alone_b.histogram(name).count())
        << name;
  }
}

// A run that throws mid-loop still hands what it recorded to the caller.
TEST(ObsContract, ThrowingRunStillMergesItsRegistry) {
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  edge::RunnerConfig rc =
      harness::make_fault_runner(edge::Method::kOurs, harness::FaultCase{});
  obs::MetricsRegistry reg;
  rc.metrics = &reg;
  rc.on_frame = [](const edge::FrameTrace& tr) {
    ERPD_ENSURE(tr.frame < 4, "stop the run at frame 4");
  };
  EXPECT_THROW(edge::SystemRunner(rc).run(sc), ContractViolation);
  EXPECT_EQ(reg.counter("frames.pipeline").value(), 5u);
}

}  // namespace
}  // namespace erpd
