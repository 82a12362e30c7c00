// thread_pool.hpp — the process-wide work-stealing thread pool.
//
// The generation hot path (tile rendering in genai::, per-asset fan-out in
// core::) needs device parallelism, but the simulation substrate demands
// bit-identical output regardless of scheduling.  The contract is therefore
// split: the pool provides *throughput* (fixed worker set, per-worker
// deques, lock-guarded stealing), while callers provide *determinism* by
// submitting pure tasks and merging results in a fixed order.  Nothing in
// this file introduces ordering of its own.
//
// Three entry points:
//   * Submit(fn)          — one task, returns a std::future (exceptions
//                           propagate through the future);
//   * ParallelFor(n, fn)  — blocking loop over [0, n) in grain-sized
//                           chunks; the calling thread participates, so it
//                           is safe to call from inside a pool task
//                           (nested parallelism cannot deadlock);
//   * Shared()            — the lazily-created process-wide pool sized to
//                           the hardware.
//
// Shutdown is graceful: the destructor stops intake, lets workers drain
// every queued task, then joins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sww::util {

class ThreadPool {
 public:
  /// Pool-wide activity counters (mirror these into obs::Registry from the
  /// owning layer; util:: cannot depend on obs::).
  struct Stats {
    std::uint64_t tasks_executed = 0;  ///< counted as a worker starts each
    std::uint64_t steals = 0;
    std::uint64_t parallel_for_chunks = 0;
  };

  /// `threads` < 1 is clamped to 1.  Workers start immediately.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// The process-wide pool, sized to std::thread::hardware_concurrency().
  static ThreadPool& Shared();

  /// Schedule one task.  The returned future carries the result or the
  /// thrown exception.  Tasks submitted after shutdown began throw
  /// std::runtime_error.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    Post([task]() { (*task)(); });
    return future;
  }

  /// Run body(begin, end) over disjoint chunks covering [0, n).  Blocks
  /// until every chunk finished; the calling thread executes chunks too,
  /// so nested calls from pool workers make progress even when every
  /// worker is busy.  The first exception thrown by any chunk is rethrown
  /// here (remaining chunks still run to completion).  `grain` bounds the
  /// smallest chunk; <= 0 means an automatic grain targeting ~4 chunks per
  /// worker.
  void ParallelFor(std::int64_t n,
                   const std::function<void(std::int64_t, std::int64_t)>& body,
                   std::int64_t grain = 0);

  Stats stats() const;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  /// Enqueue a type-erased task (round-robin across worker deques).
  void Post(std::function<void()> task);
  /// Dequeue work for worker `self`: own queue front first, then steal
  /// from the back of the busiest sibling.  Returns an empty function when
  /// no work exists.
  std::function<void()> TakeTask(std::size_t self);
  void WorkerLoop(std::size_t index);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<std::uint64_t> pending_{0};      // queued, not yet started
  std::atomic<std::uint64_t> next_queue_{0};   // round-robin intake cursor
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parallel_for_chunks_{0};
};

}  // namespace sww::util
