#pragma once
// RAII stage timer feeding the per-stage histograms (DESIGN.md §11).
//
// A StageSpan measures wall-clock time between construction and stop() (or
// destruction) and records it twice: into the registry's per-stage log2
// histogram (nanosecond samples) and into an optional double* slot, which is
// how the FrameTrace / ModuleTimings wall-clock fields are fed without a
// second clock read. Spans are the only metric components record
// themselves; counts are returned as tallies and booked by SystemRunner. In
// a closed-loop run the registry is the runner's run registry; a component
// driven on its own may pass null, which records nothing but still fills
// the slot, so instrumented code needs no branches.
//
// Span taxonomy (the paper's per-module latency decomposition, Fig. 14):
//   stage.fanout   whole sensing+extraction fan-out (all vehicles)
//   stage.sense    one vehicle's simulated LiDAR scan (sensor only)
//   stage.extract  one vehicle's local extraction
//   stage.upload   simulated uplink transfer delay
//   stage.merge    traffic-map merge + server-side detection
//   stage.track    tracking + representative selection + prediction
//   stage.relevance relevance estimation over candidate pairs
//   stage.disseminate dissemination knapsack decision
//   stage.downlink simulated downlink transfer delay
//   stage.e2e      whole frame latency: slowest extraction + upload + edge
//                  modules + downlink
// (the runner records stage.upload / stage.downlink / stage.e2e via
// Histogram::record_seconds directly, not as spans. Upload and downlink are
// simulated transfer delays; e2e adds the host-measured module times to
// them, so it varies run to run.)

#include <chrono>
#include <string_view>

#include "obs/metrics.hpp"

namespace erpd::obs {

class StageSpan {
 public:
  /// Resolves (and lazily registers) `registry->histogram(stage)`; a null
  /// registry records nothing. `wall_out`, when non-null, receives the
  /// elapsed seconds on stop.
  StageSpan(MetricsRegistry* registry, std::string_view stage,
            double* wall_out = nullptr)
      : hist_(registry != nullptr ? &registry->histogram(stage) : nullptr),
        out_(wall_out),
        start_(std::chrono::steady_clock::now()) {}

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  ~StageSpan() { stop(); }

  /// Stop the span and record. Idempotent; returns the elapsed seconds of
  /// the first stop.
  double stop() {
    if (stopped_) return elapsed_;
    stopped_ = true;
    elapsed_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
                   .count();
    if (out_ != nullptr) *out_ = elapsed_;
    if (hist_ != nullptr) hist_->record_seconds(elapsed_);
    return elapsed_;
  }

 private:
  Histogram* hist_{nullptr};
  double* out_{nullptr};
  std::chrono::steady_clock::time_point start_;
  double elapsed_{0.0};
  bool stopped_{false};
};

}  // namespace erpd::obs
