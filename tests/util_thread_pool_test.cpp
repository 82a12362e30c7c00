// Tests for the work-stealing thread pool: result/ordering contracts of
// Submit, exception propagation, ParallelFor coverage (including nested
// calls from inside pool tasks), and graceful shutdown with queued work.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/striped_lock.hpp"
#include "util/thread_pool.hpp"

namespace sww::util {
namespace {

TEST(ThreadPool, WorkerCountClampedToAtLeastOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.worker_count(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.worker_count(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.worker_count(), 4);
}

TEST(ThreadPool, SubmitResultsArriveInSubmissionOrder) {
  // Futures pair each result with its submission slot: waiting on them in
  // order yields the deterministic merge the generation pipeline relies
  // on, no matter which worker ran which task.
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughTheFuture) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] { return 7; });
  auto bad = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  pool.ParallelFor(kN, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      touched[static_cast<std::size_t>(i)].fetch_add(1,
                                                     std::memory_order_relaxed);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(touched[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<std::int64_t> sum{0};
  pool.ParallelFor(1, [&](std::int64_t begin, std::int64_t end) {
    sum.fetch_add(end - begin);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [](std::int64_t begin, std::int64_t) {
                         if (begin >= 500) throw std::logic_error("chunk");
                       },
                       /*grain=*/10),
      std::logic_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryChunkBeforeRethrowing) {
  // Chunk 0 is claimed first and throws at once; every other chunk waits
  // until it has thrown, then writes its slot late.  A rethrow that did
  // not wait for them would leave the writes racing a dead `written`.
  ThreadPool pool(4);
  constexpr std::int64_t kN = 8;
  std::vector<int> written(kN, 0);
  std::latch thrown(1);
  EXPECT_THROW(
      pool.ParallelFor(
          kN,
          [&](std::int64_t begin, std::int64_t) {
            if (begin == 0) {
              thrown.count_down();
              throw std::runtime_error("first chunk");
            }
            thrown.wait();
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            written[static_cast<std::size_t>(begin)] = 1;
          },
          /*grain=*/1),
      std::runtime_error);
  for (std::int64_t i = 1; i < kN; ++i) {
    EXPECT_EQ(written[static_cast<std::size_t>(i)], 1) << "chunk " << i;
  }
}

TEST(ThreadPool, NestedParallelForFromPoolTasksDoesNotDeadlock) {
  // Every worker blocks in an outer ParallelFor whose body runs an inner
  // one; caller participation means the inner loops still make progress.
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  pool.ParallelFor(
      8,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          pool.ParallelFor(
              100,
              [&](std::int64_t b, std::int64_t e) { total.fetch_add(e - b); },
              /*grain=*/7);
        }
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor runs here with most of the queue still pending.
  }
  EXPECT_EQ(executed.load(), 200) << "graceful shutdown must drain the queue";
}

TEST(ThreadPool, StatsCountExecutedTasksAndChunks) {
  ThreadPool pool(4);
  for (int i = 0; i < 32; ++i) pool.Submit([] {}).wait();
  pool.ParallelFor(1000, [](std::int64_t, std::int64_t) {}, /*grain=*/10);
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_GE(stats.tasks_executed, 32u);
  EXPECT_GE(stats.parallel_for_chunks, 100u);
}

TEST(ThreadPool, StatsCountEachSubmittedTaskBeforeItsFutureIsReady) {
  ThreadPool pool(4);
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    pool.Submit([] {}).wait();
    ASSERT_EQ(pool.stats().tasks_executed, i) << "after wait " << i;
  }
}

TEST(ThreadPool, SharedPoolIsProcessWideSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.worker_count(), 1);
}

TEST(StripedMutex, StripesPartitionAndLockIndependently) {
  StripedMutex<> locks;
  EXPECT_EQ(StripedMutex<>::stripe_count(), 16u);
  // Same hash → same stripe; stripes cover [0, N).
  for (std::uint64_t h : {0ull, 1ull, 12345ull, ~0ull}) {
    EXPECT_EQ(locks.StripeOf(h), locks.StripeOf(h));
    EXPECT_LT(locks.StripeOf(h), StripedMutex<>::stripe_count());
  }
  // Holding one stripe does not block another.
  std::lock_guard<std::mutex> hold(locks.Get(0));
  EXPECT_TRUE(locks.Get(1).try_lock());
  locks.Get(1).unlock();
}

TEST(StripedMutex, WithAllLockedRunsExclusively) {
  StripedMutex<4> locks;
  bool ran = false;
  locks.WithAllLocked([&] {
    ran = true;
    // All stripes are held: try_lock on any must fail.
    EXPECT_FALSE(locks.Get(2).try_lock());
  });
  EXPECT_TRUE(ran);
  // And they are released afterwards.
  EXPECT_TRUE(locks.Get(2).try_lock());
  locks.Get(2).unlock();
}

}  // namespace
}  // namespace sww::util
