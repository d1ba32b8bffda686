#pragma once
// Fixed-size worker pool + deterministic parallel loops.
//
// The pipeline's hot loops (per-vehicle sensing, per-azimuth ray casting,
// per-blob segmentation) are data-parallel with no cross-iteration
// dependencies. parallel_for / parallel_chunks split the index range into
// contiguous chunks whose boundaries depend ONLY on (n, grain) — never on
// the worker count — so per-chunk results merged in chunk order are
// bit-identical for any ERPD_THREADS setting, including 1 (the serial
// fallback runs the same chunks in order on the calling thread).
//
// Scheduling is dynamic (workers pull the next chunk index), which is safe
// because callers write results into chunk- or element-indexed slots; only
// the decomposition, not the schedule, can influence the output.
//
// The process-wide pool is sized from the ERPD_THREADS environment variable
// (unset/0 = hardware concurrency) on first use and lives until exit.
// set_thread_count() rebuilds it; it exists for the perf harness and the
// determinism tests and must not race with concurrent parallel loops.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <typeindex>
#include <vector>

namespace erpd::core {

/// Cumulative scheduling counters of one pool. A plain snapshot struct —
/// erpd_threads stays observability-free; SystemRunner diffs two snapshots
/// and records the delta into its metrics registry. Counting uses relaxed
/// atomics only (scheduling order is already nondeterministic; the totals
/// are not), so recording cannot perturb simulated outputs.
struct PoolStats {
  /// Execution lanes (spawned workers + the calling thread).
  std::size_t workers{0};
  /// Parallel regions dispatched to the worker threads.
  std::uint64_t jobs{0};
  /// Regions run on the serial fast path (1 worker, 1 chunk, or nested).
  std::uint64_t serial_jobs{0};
  /// Chunks executed, all lanes, both paths.
  std::uint64_t chunks{0};
  /// Widest region seen (chunks per job): the peak queue depth a lane can
  /// pull from.
  std::uint64_t max_job_chunks{0};
  /// Chunks executed per lane; lane 0 is the calling thread. Uneven counts
  /// show pull-scheduling imbalance (the "steals" of a work-stealing pool).
  std::vector<std::uint64_t> lane_chunks;
};

class ThreadPool {
 public:
  /// A pool with `workers` execution lanes. `workers - 1` threads are
  /// spawned; the caller of run_chunks is the remaining lane.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return workers_; }

  /// Invoke fn(chunk) for every chunk in [0, n_chunks), distributed over the
  /// pool (the calling thread participates). Blocks until all chunks are
  /// done. The first exception thrown by fn is rethrown to the caller after
  /// the remaining chunks finish or are abandoned.
  void run_chunks(std::size_t n_chunks,
                  const std::function<void(std::size_t)>& fn);

  /// Snapshot of the cumulative scheduling counters (thread-safe).
  PoolStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t workers_{1};
};

/// Process-wide pool used by parallel_for / parallel_chunks.
ThreadPool& global_pool();

/// Worker count of the global pool (== what parallel loops will use).
std::size_t thread_count();

/// Rebuild the global pool with `n` workers (0 = auto: ERPD_THREADS env or
/// hardware concurrency). Harness/test setup only; not safe against
/// concurrent parallel loops.
void set_thread_count(std::size_t n);

/// Lane of the calling thread in the global pool: 0 on the thread that calls
/// a parallel loop (and on any thread outside the pool), 1 .. workers - 1 on
/// the spawned workers. Two chunks never run on one lane at once, so working
/// memory kept per lane and indexed by it needs no lock. Which lane runs a
/// chunk depends on the schedule, so such memory may carry capacity only,
/// never a value an output reads.
std::size_t current_lane();

/// True when a region of `n_chunks` chunks runs them in ascending order on
/// the calling thread: one worker, one chunk, or a region nested inside
/// another (the serial fast path of ThreadPool::run_chunks).
bool runs_serially(std::size_t n_chunks);

namespace detail {
/// Pops a shelved object of `type`, or returns null.
std::shared_ptr<void> shelf_take(std::type_index type);
void shelf_put(std::type_index type, std::shared_ptr<void> object);
}  // namespace detail

/// Working memory that outlives its borrower (DESIGN.md §20): a T shelved
/// by an earlier borrower, or a new one, put back on a process-wide shelf
/// when the last copy of the handle goes. Harnesses rebuild the runner and
/// the pool for every short run; the shelf keeps the capacity of their
/// scratch warm across them. A T must carry capacity only (see
/// current_lane), so which one a borrower gets never changes an output. The
/// shelf holds at most as many T as were ever borrowed at once. Thread-safe.
template <typename T>
std::shared_ptr<T> borrow_scratch() {
  std::shared_ptr<void> kept = detail::shelf_take(typeid(T));
  std::shared_ptr<T> obj = kept ? std::static_pointer_cast<T>(kept)
                                : std::make_shared<T>();
  T* const raw = obj.get();
  return std::shared_ptr<T>(raw, [obj = std::move(obj)](T*) mutable {
    detail::shelf_put(typeid(T), std::move(obj));
  });
}

/// Number of chunks parallel_chunks(n, grain, ...) will produce. Exposed so
/// callers can size per-chunk result slots up front.
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

/// Deterministic chunked loop: fn(begin, end, chunk) over [0, n) split into
/// chunk_count(n, grain) contiguous chunks of `grain` elements (last chunk
/// may be short). Use when fn accumulates into per-chunk scratch merged in
/// chunk order afterwards.
template <typename Fn>
void parallel_chunks(std::size_t n, std::size_t grain, Fn&& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(n, grain);
  global_pool().run_chunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    fn(begin, std::min(n, begin + grain), c);
  });
}

/// Element-wise parallel loop: fn(i) for i in [0, n). `grain` batches
/// elements per chunk to amortize scheduling for cheap bodies.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
  parallel_chunks(n, grain,
                  [&](std::size_t begin, std::size_t end, std::size_t) {
                    for (std::size_t i = begin; i < end; ++i) fn(i);
                  });
}

}  // namespace erpd::core
