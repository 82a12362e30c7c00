#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace sww::util {

ThreadPool::ThreadPool(int threads) {
  const int count = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  // Never destroyed: a ParallelFor from static teardown must not race a
  // dying pool (same pattern as obs::Registry::Default).
  static ThreadPool* pool = new ThreadPool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return *pool;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
    // Stopping with an empty queue: every queued helper has run.
    if (tasks_.empty()) return;
    {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      task();
    }
    lock.lock();
  }
}

void ThreadPool::ParallelFor(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t grain) {
  if (n <= 0) return;
  if (grain <= 0) {
    // ~4 chunks per worker amortizes scheduling while leaving room for
    // the shared cursor to balance uneven chunk costs.
    grain = std::max<std::int64_t>(1, n / (4 * worker_count()));
  }
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (chunks == 1 || worker_count() == 1) {
    body(0, n);
    return;
  }

  // Shared with the queued helpers: a surplus helper that starts after
  // this call returned still reads the cursor (and then stops at once).
  struct LoopState {
    std::atomic<std::int64_t> next_chunk{0};
    std::atomic<std::int64_t> done_chunks{0};
    std::mutex mutex;  // guards first_exception + done_cv
    std::condition_variable done_cv;
    std::exception_ptr first_exception;
  };
  auto state = std::make_shared<LoopState>();

  auto run_chunks = [state, n, grain, chunks, &body]() {
    for (;;) {
      const std::int64_t chunk =
          state->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) return;
      const std::int64_t begin = chunk * grain;
      const std::int64_t end = std::min<std::int64_t>(begin + grain, n);
      try {
        body(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->first_exception) {
          state->first_exception = std::current_exception();
        }
      }
      if (state->done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          chunks) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->done_cv.notify_all();
      }
    }
  };

  // Helpers are capped at the worker count; the caller is the final lane
  // and guarantees progress even when every worker is busy elsewhere.
  const std::int64_t helpers =
      std::min<std::int64_t>(chunks - 1, worker_count());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t h = 0; h < helpers; ++h) tasks_.emplace_back(run_chunks);
  }
  for (std::int64_t h = 0; h < helpers; ++h) wake_cv_.notify_one();
  run_chunks();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&state, chunks] {
    return state->done_chunks.load(std::memory_order_acquire) == chunks;
  });
  if (state->first_exception) std::rethrow_exception(state->first_exception);
}

}  // namespace sww::util
