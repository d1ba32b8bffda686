#include "core/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/check.hpp"

namespace erpd::core {

namespace {

// True while this thread is executing a chunk of some parallel region.
// A nested parallel loop (e.g. the per-azimuth scan inside the per-vehicle
// sensing loop) then degrades to the serial fast path instead of deadlocking
// on the shared pool — output is identical by the determinism contract.
thread_local bool tl_in_parallel = false;

// Lane index of this thread in the current pool: 0 for the caller lane (and
// any thread that never joined a pool), i+1 for spawned worker i. Chunk
// accounting attributes work to lanes through it, including nested serial
// regions that run on a worker thread.
thread_local std::size_t tl_lane = 0;

struct InParallelScope {
  InParallelScope() { tl_in_parallel = true; }
  ~InParallelScope() { tl_in_parallel = false; }
};

void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;  // workers: a new job or stop
  std::condition_variable done_cv;  // caller: all chunks completed
  std::vector<std::thread> threads;

  // Current job, valid while remaining > 0. Guarded by mu; the function is
  // invoked outside the lock and outlives the job (the caller owns it and
  // waits for remaining == 0 before returning).
  const std::function<void(std::size_t)>* job{nullptr};
  std::size_t job_chunks{0};
  std::size_t next_chunk{0};
  std::size_t remaining{0};
  std::uint64_t generation{0};
  std::exception_ptr error;
  bool stop{false};

  // Scheduling counters (PoolStats). Relaxed atomics, write-only on the hot
  // path: the serial/nested fast path bypasses `mu` and can run concurrently
  // on several workers, so even lane-local counts must be atomic.
  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::uint64_t> serial_jobs{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> max_job_chunks{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> lane_chunks;

  void count_chunk() {
    chunks.fetch_add(1, std::memory_order_relaxed);
    lane_chunks[tl_lane].fetch_add(1, std::memory_order_relaxed);
  }

  /// Pull-and-run chunks of the current job until none are left. Requires
  /// `lk` held; returns with it held.
  void drain(std::unique_lock<std::mutex>& lk) {
    while (next_chunk < job_chunks) {
      const std::size_t c = next_chunk++;
      const auto* fn = job;
      lk.unlock();
      try {
        const InParallelScope scope;
        (*fn)(c);
        count_chunk();
        lk.lock();
      } catch (...) {
        count_chunk();
        lk.lock();
        if (!error) error = std::current_exception();
      }
      if (--remaining == 0) done_cv.notify_all();
    }
  }

  void worker_main(std::size_t lane) {
    tl_lane = lane;
    std::unique_lock<std::mutex> lk(mu);
    std::uint64_t seen = 0;
    for (;;) {
      work_cv.wait(lk, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      drain(lk);
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers)
    : impl_(std::make_unique<Impl>()), workers_(std::max<std::size_t>(1, workers)) {
  impl_->lane_chunks =
      std::make_unique<std::atomic<std::uint64_t>[]>(workers_);
  impl_->threads.reserve(workers_ - 1);
  for (std::size_t i = 0; i + 1 < workers_; ++i) {
    impl_->threads.emplace_back(
        [impl = impl_.get(), lane = i + 1] { impl->worker_main(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
}

void ThreadPool::run_chunks(std::size_t n_chunks,
                            const std::function<void(std::size_t)>& fn) {
  if (n_chunks == 0) return;
  atomic_max(impl_->max_job_chunks, n_chunks);
  if (workers_ == 1 || n_chunks == 1 || tl_in_parallel) {
    // Serial fast path: same chunks, same order, zero scheduling overhead.
    // Also taken for nested regions (tl_in_parallel) — the outer loop owns
    // the pool.
    impl_->serial_jobs.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      fn(c);
      impl_->count_chunk();
    }
    return;
  }

  std::unique_lock<std::mutex> lk(impl_->mu);
  ERPD_REQUIRE(impl_->remaining == 0,
               "ThreadPool::run_chunks: nested/concurrent use of one pool");
  impl_->job = &fn;
  impl_->job_chunks = n_chunks;
  impl_->next_chunk = 0;
  impl_->remaining = n_chunks;
  impl_->error = nullptr;
  impl_->jobs.fetch_add(1, std::memory_order_relaxed);
  ++impl_->generation;
  impl_->work_cv.notify_all();

  impl_->drain(lk);  // the caller is a lane too
  impl_->done_cv.wait(lk, [&] { return impl_->remaining == 0; });

  impl_->job = nullptr;
  impl_->job_chunks = 0;
  if (impl_->error) {
    std::exception_ptr e = impl_->error;
    impl_->error = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.workers = workers_;
  s.jobs = impl_->jobs.load(std::memory_order_relaxed);
  s.serial_jobs = impl_->serial_jobs.load(std::memory_order_relaxed);
  s.chunks = impl_->chunks.load(std::memory_order_relaxed);
  s.max_job_chunks = impl_->max_job_chunks.load(std::memory_order_relaxed);
  s.lane_chunks.resize(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    s.lane_chunks[i] = impl_->lane_chunks[i].load(std::memory_order_relaxed);
  }
  return s;
}

namespace {

std::size_t auto_thread_count() {
  if (const char* env = std::getenv("ERPD_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // NOLINT: joined at exit via destructor

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(auto_thread_count());
  return *g_pool;
}

std::size_t thread_count() { return global_pool().workers(); }

namespace {

std::mutex g_shelf_mu;
// Process-wide by design (borrow_scratch); freed at exit.
std::multimap<std::type_index, std::shared_ptr<void>> g_shelf;  // NOLINT

}  // namespace

namespace detail {

std::shared_ptr<void> shelf_take(std::type_index type) {
  std::lock_guard<std::mutex> lk(g_shelf_mu);
  const auto it = g_shelf.find(type);
  if (it == g_shelf.end()) return nullptr;
  std::shared_ptr<void> object = std::move(it->second);
  g_shelf.erase(it);
  return object;
}

void shelf_put(std::type_index type, std::shared_ptr<void> object) {
  std::lock_guard<std::mutex> lk(g_shelf_mu);
  g_shelf.emplace(type, std::move(object));
}

}  // namespace detail

std::size_t current_lane() { return tl_lane; }

bool runs_serially(std::size_t n_chunks) {
  return n_chunks <= 1 || tl_in_parallel || thread_count() == 1;
}

void set_thread_count(std::size_t n) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(n == 0 ? auto_thread_count() : n);
}

}  // namespace erpd::core
