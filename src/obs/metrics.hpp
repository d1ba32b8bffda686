#pragma once
// Global-free observability registry (DESIGN.md §11).
//
// A MetricsRegistry is an owned, passed-by-pointer container of named
// counters, gauges and fixed-bucket log2 histograms. There is deliberately no
// process-global registry: every pipeline component records into the registry
// the harness attached (or into nothing when none is attached), so two
// concurrent runs never share observability state.
//
// Determinism contract: recording is write-only with respect to the simulated
// pipeline — no code path may read a metric back to make a decision. Counter
// and histogram recording uses relaxed atomic adds, whose sums are
// order-independent, so the registry contents for *simulated* quantities
// (byte counts, drop counts, selections) are identical for any worker count.
// Wall-clock histograms legitimately vary run to run; they are observability,
// never inputs.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace erpd::obs {

/// Monotonic event/byte counter. Relaxed atomic adds: the final sum is
/// independent of which worker recorded first.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (thread counts, ratios, pool stats). Set from the
/// orchestrating thread; merge() prefers the operand's value when it was
/// ever set.
class Gauge {
 public:
  void set(double v) {
    v_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  bool is_set() const { return set_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
  std::atomic<bool> set_{false};
};

/// Fixed-bucket log2 histogram over unsigned 64-bit samples. Bucket 0 holds
/// exact zeros; bucket i (i >= 1) holds values in [2^(i-1), 2^i). Durations
/// are recorded in integer nanoseconds via record_seconds(). Bucket counts
/// are relaxed atomics, so histograms from concurrent workers merge by
/// addition with an order-independent result.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Record a non-negative duration in seconds as integer nanoseconds.
  void record_seconds(double seconds) {
    if (seconds < 0.0) seconds = 0.0;
    record(static_cast<std::uint64_t>(seconds * 1e9));
  }

  /// Bucket index a value lands in: 0 for 0, else 1 + floor(log2 v),
  /// saturating at kBuckets - 1.
  static std::size_t bucket_index(std::uint64_t value) {
    if (value == 0) return 0;
    const std::size_t w = static_cast<std::size_t>(std::bit_width(value));
    return w < kBuckets ? w : kBuckets - 1;
  }

  /// Inclusive lower bound of bucket i (0, 1, 2, 4, 8, ...).
  static std::uint64_t bucket_lower(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Approximate quantile (q in [0, 1]): finds the bucket holding the
  /// nearest-rank sample (rank ceil(q * n)) and interpolates linearly inside
  /// it. Exact for bucket 0.
  double quantile(double q) const;

  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i].fetch_add(other.bucket_count(i), std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named-metric container. Lookup registers on first use and returns a
/// reference that stays valid for the registry's lifetime, so hot paths can
/// resolve once and record lock-free afterwards. Iteration is sorted by name
/// (deterministic export order).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Fold another registry in: counters and histograms add (order of merges
  /// is irrelevant to the result), gauges take the operand's value when it
  /// was set. Used to collapse per-worker shard registries.
  void merge(const MetricsRegistry& other);

  /// Sorted-by-name snapshots for the exporter.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace erpd::obs
