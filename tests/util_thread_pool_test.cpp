// Tests for the thread pool behind ParallelFor: coverage of every index
// (also with several callers at once and nested calls from inside a
// chunk), exception propagation, and shutdown with helpers still queued.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

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

TEST(ThreadPool, ConcurrentCallersEachSeeTheirOwnIndicesOnce) {
  // Three external threads share one pool and its one queue; each loop's
  // helpers must claim only that loop's chunks.
  ThreadPool pool(4);
  constexpr int kCallers = 3;
  constexpr std::int64_t kN = 3000;
  std::vector<std::vector<std::atomic<int>>> touched;
  for (int c = 0; c < kCallers; ++c) touched.emplace_back(kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &touched, c] {
      for (int round = 0; round < 10; ++round) {
        pool.ParallelFor(
            kN,
            [&touched, c](std::int64_t begin, std::int64_t end) {
              for (std::int64_t i = begin; i < end; ++i) {
                touched[static_cast<std::size_t>(c)]
                       [static_cast<std::size_t>(i)]
                           .fetch_add(1, std::memory_order_relaxed);
              }
            },
            /*grain=*/7);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(touched[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]
                    .load(),
                10)
          << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  // Both workers block inside another caller's loop, so the next
  // ParallelFor runs every chunk on its caller and returns with its two
  // surplus helpers still queued.  The pool is destroyed right then: the
  // workers come free, drain those helpers (which find no chunk left) and
  // exit.  The other caller, once its own helpers are queued, touches only
  // its loop's shared state, so it may finish while the pool goes away.
  std::latch gate(1);
  std::atomic<int> blocked{0};
  std::atomic<int> blocked_chunks_done{0};
  std::vector<std::atomic<int>> touched(8);
  std::thread other_caller;
  std::thread releaser;
  {
    ThreadPool pool(2);
    other_caller = std::thread([&] {
      pool.ParallelFor(
          3,
          [&](std::int64_t, std::int64_t) {
            blocked.fetch_add(1);
            gate.wait();
            blocked_chunks_done.fetch_add(1);
          },
          /*grain=*/1);
    });
    while (blocked.load() < 3) std::this_thread::yield();
    pool.ParallelFor(
        8,
        [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            touched[static_cast<std::size_t>(i)].fetch_add(1);
          }
        },
        /*grain=*/1);
    releaser = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      gate.count_down();
    });
    // Destructor runs here with both helpers still queued.
  }
  releaser.join();
  other_caller.join();
  EXPECT_EQ(blocked_chunks_done.load(), 3);
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SharedPoolIsProcessWideSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.worker_count(), 1);
}

}  // namespace
}  // namespace sww::util
