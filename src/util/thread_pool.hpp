// thread_pool.hpp — the process-wide pool behind ParallelFor.
//
// A page's generated items build on every core (core::MediaGenerator's
// GenerateBatch), and the load engine precomputes its operations the same
// way; both are one blocking ParallelFor over this pool.  The simulation
// substrate demands bit-identical output regardless of scheduling, so the
// contract is split: the pool provides *throughput* (a fixed worker set
// sleeping on one queue), while callers provide *determinism* by running
// pure chunks and merging their results in a fixed order.  Nothing in this
// file introduces ordering of its own.
//
// Entry points:
//   * ParallelFor(n, fn)  — blocking loop over [0, n) in grain-sized
//                           chunks claimed from one shared cursor; the
//                           calling thread participates, so it is safe to
//                           call from inside a chunk (nested parallelism
//                           cannot deadlock);
//   * Shared()            — the lazily-created process-wide pool sized to
//                           the hardware.
//
// The destructor lets workers drain every queued helper, then joins.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sww::util {

class ThreadPool {
 public:
  /// `threads` < 1 is clamped to 1.  Workers start immediately.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// The process-wide pool, sized to std::thread::hardware_concurrency().
  static ThreadPool& Shared();

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

 private:
  void WorkerLoop();

  std::mutex mutex_;  // guards tasks_ and stopping_
  std::condition_variable wake_cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // last: the workers use the above
};

}  // namespace sww::util
