// obs_ring_test — the bounded ring behind the flight recorder, the journal
// and the tracer:
//   * Ring<T> in isolation: wrap order, drop counts, SetCapacity shrink and
//     grow, capacity 0 and 1, newest-first find after a wrap;
//   * its three owners written from eight threads at once: every total
//     and drop count comes out exact (run under TSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/journal.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"

namespace sww::obs {
namespace {

std::vector<int> Filled(Ring<int>& ring, int from, int to) {
  for (int i = from; i < to; ++i) ring.Push(i);
  return ring.Snapshot();
}

TEST(ObsRing, FillsInOrderThenWrapsOverwritingOldest) {
  Ring<int> ring(4);
  EXPECT_TRUE(ring.Push(0));
  EXPECT_EQ(Filled(ring, 1, 4), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.dropped(), 0u);

  EXPECT_FALSE(ring.Push(4));  // overwrote 0
  EXPECT_EQ(Filled(ring, 5, 11), (std::vector<int>{7, 8, 9, 10}));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);
}

TEST(ObsRing, ClearEmptiesAndZeroesCountsButKeepsCapacity) {
  Ring<int> ring(3);
  Filled(ring, 0, 5);
  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(Filled(ring, 10, 14), (std::vector<int>{11, 12, 13}));
}

TEST(ObsRing, ShrinkKeepsNewestAndCountsEvictionsAsDropped) {
  Ring<int> ring(5);
  Filled(ring, 0, 8);  // wrapped: holds 3..7
  EXPECT_EQ(ring.SetCapacity(2), 3u);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{6, 7}));
  EXPECT_EQ(ring.dropped(), 6u);  // 3 overwritten + 3 evicted
  EXPECT_EQ(Filled(ring, 8, 9), (std::vector<int>{7, 8}));
  EXPECT_EQ(ring.total(), 9u);
  EXPECT_EQ(ring.dropped(), 7u);
}

TEST(ObsRing, GrowKeepsEveryEntryAndOpensRoom) {
  Ring<int> ring(3);
  Filled(ring, 0, 5);  // wrapped: holds 2..4
  EXPECT_EQ(ring.SetCapacity(5), 0u);
  EXPECT_EQ(Filled(ring, 5, 7), (std::vector<int>{2, 3, 4, 5, 6}));
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(Filled(ring, 7, 8), (std::vector<int>{3, 4, 5, 6, 7}));
  EXPECT_EQ(ring.dropped(), 3u);
}

TEST(ObsRing, CapacityZeroDropsEverything) {
  Ring<int> ring(0);
  EXPECT_FALSE(ring.Push(1));
  EXPECT_FALSE(ring.Push(2));
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.total(), 2u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.FindNewest([](int) { return true; }), nullptr);

  Ring<int> live(2);
  Filled(live, 0, 2);
  EXPECT_EQ(live.SetCapacity(0), 2u);
  EXPECT_TRUE(live.Snapshot().empty());
  EXPECT_EQ(live.dropped(), 2u);
}

TEST(ObsRing, CapacityOneKeepsOnlyTheNewest) {
  Ring<int> ring(1);
  EXPECT_TRUE(ring.Push(1));
  EXPECT_FALSE(ring.Push(2));
  EXPECT_FALSE(ring.Push(3));
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{3}));
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(ObsRing, FindNewestSearchesNewestFirstAfterWrap) {
  Ring<int> ring(4);
  Filled(ring, 0, 7);  // wrapped: holds 3..6
  int* even = ring.FindNewest([](int v) { return v % 2 == 0; });
  ASSERT_NE(even, nullptr);
  EXPECT_EQ(*even, 6);
  int* odd = ring.FindNewest([](int v) { return v % 2 == 1; });
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(*odd, 5);
  EXPECT_EQ(ring.FindNewest([](int v) { return v < 3; }), nullptr);

  *odd = 50;  // the pointer is into the ring
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{3, 4, 50, 6}));
  const Ring<int>& view = ring;
  EXPECT_EQ(*view.FindNewest([](int v) { return v < 5; }), 4);
}

TEST(ObsRing, OwnersCountExactlyUnderEightWriterThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1500;  // the tracer's ring overflows too
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  ConnectionTap tap("shared", kCapacity);
  Journal journal(kCapacity);
  Tracer tracer;

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        FrameRecord frame;
        frame.direction = t % 2 == 0 ? TapDirection::kSent
                                     : TapDirection::kReceived;
        frame.stream_id = static_cast<std::uint32_t>(i);
        tap.Record(frame);
        tap.Annotate(frame.direction, 0, frame.stream_id, {{"t", "x"}});
        JournalRecord record;
        record.trace_id = static_cast<std::uint64_t>(t * kPerThread + i + 1);
        journal.Record(record);
        const SpanId span = tracer.BeginAsyncSpan("work", "test");
        tracer.ContextOf(span);
        tracer.EndSpan(span);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(tap.total_recorded(), kTotal);
  EXPECT_EQ(tap.total_sent() + tap.total_received(), kTotal);
  EXPECT_EQ(tap.total_sent(), kTotal / 2);
  EXPECT_EQ(tap.dropped(), kTotal - kCapacity);
  EXPECT_EQ(tap.Records().size(), kCapacity);
  EXPECT_EQ(tap.Records().back().sequence, kTotal - 1);

  EXPECT_EQ(journal.total_recorded(), kTotal);
  EXPECT_EQ(journal.dropped(), kTotal - kCapacity);
  EXPECT_EQ(journal.Records().size(), kCapacity);

  EXPECT_EQ(tracer.finished_count(), Tracer::kFinishedCapacity);
  EXPECT_EQ(tracer.dropped(), kTotal - Tracer::kFinishedCapacity);
  // Span ids were handed out without loss or reuse.
  std::set<SpanId> ids;
  for (const Span& span : tracer.FinishedSpans()) ids.insert(span.id);
  EXPECT_EQ(ids.size(), Tracer::kFinishedCapacity);
  EXPECT_EQ(*ids.rbegin(), kTotal);
}

}  // namespace
}  // namespace sww::obs
