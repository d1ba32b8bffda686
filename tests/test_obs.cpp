// Unit tests for the observability layer (DESIGN.md §11): histogram bucket
// semantics, registry merge determinism, thread-count invariance of counter
// totals, the golden export schema, and the recording-never-perturbs-the-
// simulation contract.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>
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

void expect_same_histogram(const obs::Histogram& lhs,
                           const obs::Histogram& rhs) {
  EXPECT_EQ(lhs.count(), rhs.count());
  EXPECT_EQ(lhs.sum(), rhs.sum());
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    EXPECT_EQ(lhs.bucket_count(b), rhs.bucket_count(b)) << "bucket " << b;
  }
}

void expect_same_registry(const obs::MetricsRegistry& lhs,
                          const obs::MetricsRegistry& rhs) {
  EXPECT_EQ(lhs.counters(), rhs.counters());
  const auto lh = lhs.histograms();
  const auto rh = rhs.histograms();
  ASSERT_EQ(lh.size(), rh.size());
  for (std::size_t i = 0; i < lh.size(); ++i) {
    EXPECT_EQ(lh[i].first, rh[i].first);
    expect_same_histogram(*lh[i].second, *rh[i].second);
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

TEST(StageSpan, RecordsOneSampleOnDestruction) {
  obs::MetricsRegistry reg;
  { obs::StageSpan span(&reg, "stage.test"); }
  EXPECT_EQ(reg.histogram("stage.test").count(), 1u);
}

TEST(StageSpan, StopIsIdempotent) {
  obs::MetricsRegistry reg;
  {
    obs::StageSpan span(&reg, "stage.test");
    span.stop();
    span.stop();
  }
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
      "upload_seconds",
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

// The behaviour fingerprint, pinned. distinct_metrics() gives each of the
// 40 fields its own value (signs alternate, so ints pin the sign-extending
// cast). The expected hash is what the benchmark's own fingerprint_of
// (perfbench/perfbench.cpp) returns for the same struct, so the two
// definitions cannot drift apart.
template <typename T>
void set_distinct(T& field, int i) {
  const int sign = i % 2 == 0 ? 1 : -1;
  if constexpr (std::is_same_v<T, bool>) {
    field = i % 2 == 0;
  } else if constexpr (std::is_same_v<T, int>) {
    field = sign * (i + 1);
  } else {
    field = sign * (i + 0.25);
  }
}

template <typename T>
void perturb(T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    field = !field;
  } else {
    field += 1;
  }
}

edge::MethodMetrics distinct_metrics() {
  edge::MethodMetrics m;
  int i = 0;
#define X(field) set_distinct(m.field, i++);
  ERPD_METHOD_METRICS_FIELDS(X)
#undef X
  return m;
}

TEST(BehaviorFingerprint, MatchesTheBenchmarkDefinition) {
  EXPECT_EQ(edge::behavior_fingerprint(distinct_metrics()),
            0xef7d7bdcd9788f8full);
}

TEST(BehaviorFingerprint, EveryFieldMovesTheHash) {
  const edge::MethodMetrics base = distinct_metrics();
  const std::uint64_t ref = edge::behavior_fingerprint(base);
#define X(field)                                               \
  {                                                            \
    edge::MethodMetrics m = base;                              \
    perturb(m.field);                                          \
    EXPECT_NE(edge::behavior_fingerprint(m), ref) << #field;   \
  }
  ERPD_METHOD_METRICS_FIELDS(X)
#undef X
}

TEST(Schema, ExportedJsonCarriesEveryKey) {
  obs::JsonWriter w;
  w.begin_object();
  edge::append_method_metrics(w, edge::MethodMetrics{});
  w.end_object();
  for (const std::string_view k : edge::method_metrics_keys()) {
    std::string needle(1, '"');
    needle.append(k).append("\":");
    EXPECT_NE(w.str().find(needle), std::string::npos) << k;
  }
}

TEST(Manifest, FingerprintIsStableAndSensitive) {
  const edge::RunnerConfig a = edge::make_runner_config(edge::Method::kOurs);
  const obs::RunManifest ma = edge::make_manifest(a, "s", 42);
  EXPECT_EQ(ma.config_fingerprint,
            edge::make_manifest(a, "s", 42).config_fingerprint);
  // Every setting that callers vary moves the fingerprint.
  using Flip = void (*)(edge::RunnerConfig&);
  const std::pair<const char*, Flip> flips[] = {
      {"method", [](edge::RunnerConfig& c) { c.method = edge::Method::kEmp; }},
      {"duration", [](edge::RunnerConfig& c) { c.duration += 1.0; }},
      {"staleness_decay",
       [](edge::RunnerConfig& c) { c.edge.staleness_decay = 0.1; }},
      {"follower_relevance",
       [](edge::RunnerConfig& c) { c.edge.follower_relevance = false; }},
      {"follower.alpha",
       [](edge::RunnerConfig& c) { c.edge.follower.alpha = 0.5; }},
      {"follower.criterion",
       [](edge::RunnerConfig& c) {
         c.edge.follower.criterion = core::FollowerCriterion::kViolatesBoth;
       }},
      {"tracker.max_coast_frames",
       [](edge::RunnerConfig& c) { c.edge.tracker.max_coast_frames = 6; }},
      {"ingest.enabled",
       [](edge::RunnerConfig& c) { c.edge.ingest.enabled = true; }},
      {"ingest.point_budget_per_frame",
       [](edge::RunnerConfig& c) { c.edge.ingest.point_budget_per_frame = 9; }},
      {"redundancy.enabled",
       [](edge::RunnerConfig& c) { c.redundancy.enabled = true; }},
      {"service.enabled",
       [](edge::RunnerConfig& c) { c.service.enabled = true; }},
      {"service.queue_drain_max",
       [](edge::RunnerConfig& c) { c.service.queue_drain_max = 4; }},
      {"service.decode_merge_budget_us",
       [](edge::RunnerConfig& c) { c.service.decode_merge_budget_us = 300; }},
  };
  for (const auto& [name, flip] : flips) {
    edge::RunnerConfig b = a;
    flip(b);
    EXPECT_NE(ma.config_fingerprint,
              edge::make_manifest(b, "s", 42).config_fingerprint)
        << name;
  }
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

  const auto fp = edge::behavior_fingerprint;
  EXPECT_EQ(fp(bare), fp(a));
  ASSERT_NE(fp(a), fp(b));
  for (const auto& [alone, reused] : {std::pair{&a, &a2}, std::pair{&b, &b2}}) {
    EXPECT_EQ(fp(*alone), fp(*reused));
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

// One clock per histogram: host.frame times every loop iteration, the
// simulated transfer delays sit in sim.upload / sim.downlink (one sample per
// pipeline frame), and no histogram adds the two clocks together. Simulated
// time is deterministic, so its histograms match at any worker count.
TEST(ObsContract, EachClockHasItsOwnHistogram) {
  obs::MetricsRegistry by_workers[2];
  for (const std::size_t i : {0u, 1u}) {
    core::set_thread_count(i == 0 ? 1 : 8);
    obs::MetricsRegistry& reg = by_workers[i];
    sim::Scenario sc =
        sim::make_unprotected_left_turn(harness::default_intersection(42));
    edge::RunnerConfig rc =
        harness::make_fault_runner(edge::Method::kOurs, harness::FaultCase{});
    rc.duration = 3.0;
    rc.metrics = &reg;
    edge::SystemRunner(rc).run(sc);
    const std::uint64_t frames = reg.counter("frames.pipeline").value();
    EXPECT_EQ(frames, static_cast<std::uint64_t>(
                          std::llround(rc.duration / sim::kFrameInterval)));
    EXPECT_EQ(reg.histogram("host.frame").count(), frames);  // loop steps
    EXPECT_EQ(reg.histogram("sim.upload").count(), frames);
    EXPECT_EQ(reg.histogram("sim.downlink").count(), frames);
    for (const auto& [name, h] : reg.histograms()) EXPECT_NE(name, "stage.e2e");
  }
  core::set_thread_count(0);
  for (const char* name : {"sim.upload", "sim.downlink"}) {
    SCOPED_TRACE(name);
    expect_same_histogram(by_workers[0].histogram(name),
                          by_workers[1].histogram(name));
  }
}

// The DBSCAN work counters land on the side that clusters: Ours segments on
// the vehicles and uploads objects; EMP uploads blobs that the edge merges
// and re-segments.
TEST(ObsContract, DbscanWorkBookedWhereItRuns) {
  const auto run = [](edge::Method method) {
    sim::Scenario sc =
        sim::make_unprotected_left_turn(harness::default_intersection(42));
    edge::RunnerConfig rc =
        harness::make_fault_runner(method, harness::FaultCase{});
    rc.duration = 1.0;
    obs::MetricsRegistry reg;
    rc.metrics = &reg;
    edge::SystemRunner(rc).run(sc);
    return std::pair{reg.counter("client.dbscan_distance_tests").value(),
                     reg.counter("edge.dbscan_distance_tests").value()};
  };
  const auto [ours_client, ours_edge] = run(edge::Method::kOurs);
  EXPECT_GT(ours_client, 0u);
  EXPECT_EQ(ours_edge, 0u);
  const auto [emp_client, emp_edge] = run(edge::Method::kEmp);
  EXPECT_EQ(emp_client, 0u);
  EXPECT_GT(emp_edge, 0u);
}

// A run that throws mid-loop still hands what it recorded to the caller,
// and on_frame only sees ledgers that are already booked.
TEST(ObsContract, ThrowingRunStillMergesItsRegistry) {
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  edge::RunnerConfig rc =
      harness::make_fault_runner(edge::Method::kOurs, harness::FaultCase{});
  obs::MetricsRegistry reg;
  rc.metrics = &reg;
  std::uint64_t offered_bytes = 0;
  rc.on_frame = [&](const edge::FrameTrace& tr) {
    offered_bytes += tr.up.offered_bytes;
    ERPD_ENSURE(tr.frame < 4, "stop the run at frame 4");
  };
  EXPECT_THROW(edge::SystemRunner(rc).run(sc), ContractViolation);
  EXPECT_EQ(reg.counter("frames.pipeline").value(), 5u);
  EXPECT_GT(offered_bytes, 0u);
  EXPECT_EQ(reg.counter("uplink.offered_bytes").value(), offered_bytes);
}

}  // namespace
}  // namespace erpd
