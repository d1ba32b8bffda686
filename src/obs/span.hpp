#pragma once
// RAII stage timer feeding the per-stage histograms (DESIGN.md §11).
//
// A StageSpan measures host wall-clock time between construction and stop()
// (or destruction) and records it, in nanoseconds, into the registry's
// per-stage log2 histogram. That histogram is the only home of a host time:
// no result struct carries one. Spans are the only metric components record
// themselves; counts are returned as tallies and booked by SystemRunner. In
// a closed-loop run the registry is the runner's run registry; a component
// driven on its own may pass null, which records nothing, so instrumented
// code needs no branches.
//
// Histogram names say which clock they hold.
// Host wall time (StageSpan, varies run to run):
//   host.frame     one loop iteration of SystemRunner::run: the pipeline
//                  frame plus the world step
//   stage.fanout   whole sensing+extraction fan-out (all vehicles)
//   stage.sense    one vehicle's simulated LiDAR scan (sensor only)
//   stage.extract  one vehicle's local extraction
//   stage.merge    traffic-map merge + server-side detection
//   stage.track    tracking + representative selection + prediction
//   stage.relevance relevance estimation over candidate pairs
//   stage.disseminate dissemination knapsack decision
// Simulated time (Histogram::record_seconds by the runner, deterministic for
// a seed and bit-equal at any worker count):
//   sim.upload     uplink transfer delay of the frame's delivered uploads
//   sim.downlink   downlink transfer delay of the frame's slowest message
// No histogram adds the two clocks together.

#include <chrono>
#include <string_view>

#include "obs/metrics.hpp"

namespace erpd::obs {

class StageSpan {
 public:
  /// Resolves (and lazily registers) `registry->histogram(stage)`; a null
  /// registry records nothing.
  StageSpan(MetricsRegistry* registry, std::string_view stage)
      : hist_(registry != nullptr ? &registry->histogram(stage) : nullptr),
        start_(std::chrono::steady_clock::now()) {}

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  ~StageSpan() { stop(); }

  /// Stop the span and record. Idempotent: only the first stop records.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    if (hist_ != nullptr) {
      hist_->record_seconds(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_)
                                .count());
    }
  }

 private:
  Histogram* hist_{nullptr};
  std::chrono::steady_clock::time_point start_;
  bool stopped_{false};
};

}  // namespace erpd::obs
