#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace sww::util {

ThreadPool::ThreadPool(int threads) {
  const std::size_t count = static_cast<std::size_t>(std::max(threads, 1));
  queues_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // The lock pairs with the wait predicate: a worker is either before its
    // predicate check (and will see stopping_) or fully asleep (and gets
    // the notify) — never in between.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Never destroyed: tasks posted from static teardown must not race a
  // dying pool (same pattern as obs::Registry::Default).
  static ThreadPool* pool = new ThreadPool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return *pool;
}

void ThreadPool::Post(std::function<void()> task) {
  if (stopping_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ThreadPool::Post after shutdown began");
  }
  const std::size_t index =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[index]->mutex);
    queues_[index]->tasks.push_back(std::move(task));
  }
  {
    // Publish under wake_mutex_ so a worker mid-predicate cannot miss it
    // (lost-wakeup guard; see ~ThreadPool).
    std::lock_guard<std::mutex> lock(wake_mutex_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

std::function<void()> ThreadPool::TakeTask(std::size_t self) {
  // Own queue first (front: submission order for this deque)...
  {
    std::lock_guard<std::mutex> lock(queues_[self]->mutex);
    if (!queues_[self]->tasks.empty()) {
      std::function<void()> task = std::move(queues_[self]->tasks.front());
      queues_[self]->tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  // ...then steal from the back of a sibling's deque.
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    const std::size_t victim = (self + offset) % queues_.size();
    std::lock_guard<std::mutex> lock(queues_[victim]->mutex);
    if (!queues_[victim]->tasks.empty()) {
      std::function<void()> task = std::move(queues_[victim]->tasks.back());
      queues_[victim]->tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return {};
}

void ThreadPool::WorkerLoop(std::size_t index) {
  for (;;) {
    std::function<void()> task = TakeTask(index);
    if (task) {
      // Counted before it runs: a Submit future becomes ready inside
      // task(), and whoever waited on it must already see the count.
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) > 0 ||
             stopping_.load(std::memory_order_acquire);
    });
    // Graceful shutdown: keep draining until every queued task ran.
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::ParallelFor(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t grain) {
  if (n <= 0) return;
  if (grain <= 0) {
    // ~4 chunks per worker amortizes scheduling while leaving room for
    // stealing to balance uneven chunk costs.
    grain = std::max<std::int64_t>(1, n / (4 * worker_count()));
  }
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (chunks == 1 || worker_count() == 1) {
    body(0, n);
    parallel_for_chunks_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  struct LoopState {
    std::atomic<std::int64_t> next_chunk{0};
    std::atomic<std::int64_t> done_chunks{0};
    std::mutex mutex;  // guards exception + done_cv
    std::condition_variable done_cv;
    std::exception_ptr first_exception;
  };
  auto state = std::make_shared<LoopState>();

  auto run_chunks = [state, n, grain, chunks, &body, this]() {
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
      parallel_for_chunks_.fetch_add(1, std::memory_order_relaxed);
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
  for (std::int64_t h = 0; h < helpers; ++h) {
    Post(run_chunks);
  }
  run_chunks();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&state, chunks] {
    return state->done_chunks.load(std::memory_order_acquire) == chunks;
  });
  if (state->first_exception) std::rethrow_exception(state->first_exception);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats stats;
  stats.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.parallel_for_chunks =
      parallel_for_chunks_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace sww::util
