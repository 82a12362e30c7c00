// obs_test — the metrics registry, span tracer, and exporters.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "json/json.hpp"
#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sww::obs {
namespace {

TEST(Counter, AddAndReset) {
  Registry registry;
  Counter& c = registry.GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsAreLossless) {
  Registry registry;
  Counter& c = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAndAdd) {
  Registry registry;
  Gauge& g = registry.GetGauge("test.gauge");
  g.Set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 1.75);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Registry, SameNameReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.GetCounter("dup");
  Counter& b = registry.GetCounter("dup");
  EXPECT_EQ(&a, &b);
  a.Add();
  EXPECT_EQ(b.value(), 1u);
}

TEST(Registry, HandlesSurviveReset) {
  Registry registry;
  Counter& c = registry.GetCounter("keep.counter");
  Gauge& g = registry.GetGauge("keep.gauge");
  Histogram& h = registry.GetHistogram("keep.histogram");
  c.Add(5);
  g.Set(2.0);
  h.Observe(1.0);
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.Snapshot().count, 0u);
  // The same handles keep working after Reset.
  c.Add();
  EXPECT_EQ(registry.GetCounter("keep.counter").value(), 1u);
}

TEST(Histogram, BucketsAndPercentiles) {
  Registry registry;
  Histogram& h = registry.GetHistogram("test.hist");
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.mean, 50.5);
  // Occupied-bucket compression: every count maps to a grid bucket whose
  // extent brackets it, totals add back up, and nothing overflows.
  ASSERT_EQ(snap.counts.size(), snap.bounds.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
    EXPECT_GT(snap.counts[i], 0u);
    EXPECT_GT(snap.bounds[i], Histogram::LowerBoundForUpper(snap.bounds[i]));
    total += snap.counts[i];
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(snap.counts.back(), 0u);  // overflow bucket empty
  // Quantiles from bucket midpoints: within the grid's 1/32 relative
  // bucket width of the exact order statistics.
  EXPECT_NEAR(snap.p50, 50.0, 50.0 / 32.0);
  EXPECT_NEAR(snap.p95, 95.0, 95.0 / 32.0);
  EXPECT_NEAR(snap.p99, 99.0, 99.0 / 32.0);
}

TEST(Registry, SnapshotIsDeterministicallyOrdered) {
  Registry registry;
  registry.GetCounter("z.last").Add(1);
  registry.GetCounter("a.first").Add(2);
  registry.GetGauge("m.middle").Set(3.0);
  RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a.first");
  EXPECT_EQ(snap.counters.rbegin()->first, "z.last");
  EXPECT_DOUBLE_EQ(snap.gauges.at("m.middle"), 3.0);
}

TEST(ManualClock, AdvancesDeterministically) {
  ManualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.AdvanceNanos(10);
  EXPECT_EQ(clock.NowNanos(), 10u);
  clock.AdvanceSeconds(1.5);
  EXPECT_EQ(clock.NowNanos(), 1'500'000'010u);
  clock.AdvanceSimulated(0.5);  // virtual hook advances manual time
  EXPECT_EQ(clock.NowNanos(), 2'000'000'010u);
  clock.AdvanceSeconds(-1.0);  // negative advances are ignored
  EXPECT_EQ(clock.NowNanos(), 2'000'000'010u);
}

TEST(SystemClock, SimulatedAdvanceIsNoOp) {
  SystemClock clock;
  const std::uint64_t before = clock.NowNanos();
  clock.AdvanceSimulated(1000.0);
  // Real time moved by nanoseconds at most, not the simulated 1000 s.
  EXPECT_LT(clock.NowNanos() - before, 1'000'000'000u);
}

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Default().SetClock(&clock_);
    Tracer::Default().SetEnabled(true);
    Tracer::Default().Clear();
  }
  void TearDown() override {
    Tracer::Default().Clear();
    Tracer::Default().SetClock(nullptr);
  }
  ManualClock clock_;
};

TEST_F(TracerTest, SpansNestViaThreadStack) {
  Tracer& tracer = Tracer::Default();
  SpanId outer = tracer.BeginSpan("outer", "test");
  clock_.AdvanceNanos(100);
  SpanId inner = tracer.BeginSpan("inner", "test");
  EXPECT_EQ(tracer.CurrentSpan(), inner);
  clock_.AdvanceNanos(50);
  tracer.EndSpan(inner);
  EXPECT_EQ(tracer.CurrentSpan(), outer);
  tracer.EndSpan(outer);
  EXPECT_EQ(tracer.CurrentSpan(), 0u);

  std::vector<Span> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 2u);  // finish order: inner first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, outer);
  EXPECT_EQ(spans[0].start_nanos, 100u);
  EXPECT_EQ(spans[0].end_nanos, 150u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].end_nanos, 150u);
}

TEST_F(TracerTest, AsyncSpansSkipTheStack) {
  Tracer& tracer = Tracer::Default();
  SpanId async = tracer.BeginAsyncSpan("async", "test");
  EXPECT_EQ(tracer.CurrentSpan(), 0u);
  SpanId scoped = tracer.BeginSpan("scoped");
  EXPECT_NE(scoped, async);
  tracer.EndSpan(scoped);
  tracer.EndSpan(async);
  EXPECT_EQ(tracer.finished_count(), 2u);
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Default();
  tracer.SetEnabled(false);
  SpanId id = tracer.BeginSpan("ignored");
  EXPECT_EQ(id, 0u);
  tracer.AddAttribute(id, "k", "v");  // id 0 is harmless everywhere
  tracer.EndSpan(id);
  EXPECT_EQ(tracer.finished_count(), 0u);
  tracer.SetEnabled(true);
}

TEST_F(TracerTest, AttributesAndDoubleEndAreSafe) {
  Tracer& tracer = Tracer::Default();
  {
    ScopedSpan span("attributed", "test");
    span.AddAttribute("model", "sd3-medium");
    tracer.EndSpan(span.id());  // explicit end; destructor end is a no-op
  }
  std::vector<Span> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attributes.size(), 1u);
  EXPECT_EQ(spans[0].attributes[0].first, "model");
  EXPECT_EQ(spans[0].attributes[0].second, "sd3-medium");
}

TEST_F(TracerTest, SnapshotDeterministicUnderManualClock) {
  // Two identical runs under a fresh manual clock produce identical spans.
  auto run = [](ManualClock& clock) {
    Tracer::Default().SetClock(&clock);
    Tracer::Default().Clear();
    ScopedSpan outer("fetch", "core");
    clock.AdvanceSimulated(1.25);
    {
      ScopedSpan inner("generate", "genai");
      clock.AdvanceSimulated(3.5);
    }
  };
  ManualClock first_clock;
  run(first_clock);
  std::vector<Span> first = Tracer::Default().FinishedSpans();
  ManualClock second_clock;
  run(second_clock);
  std::vector<Span> second = Tracer::Default().FinishedSpans();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].name, second[i].name);
    EXPECT_EQ(first[i].start_nanos, second[i].start_nanos);
    EXPECT_EQ(first[i].end_nanos, second[i].end_nanos);
  }
  EXPECT_DOUBLE_EQ(first.back().DurationSeconds(), 4.75);
}

TEST(Tracer, FinishedStoreIsBounded) {
  constexpr std::size_t kCapacity = Tracer::kFinishedCapacity;
  Tracer tracer;
  const SpanId parent = tracer.BeginAsyncSpan("parent");
  const TraceId parent_trace = tracer.ContextOf(parent).trace_id;
  tracer.EndSpan(parent);
  // A finished parent still in the store passes its trace on.
  const SpanId held_child = tracer.BeginAsyncSpan("child", "", parent);
  EXPECT_EQ(tracer.ContextOf(held_child).trace_id, parent_trace);
  tracer.EndSpan(held_child);

  tracer.Clear();
  const SpanId evicted = tracer.BeginAsyncSpan("evicted");
  const TraceId evicted_trace = tracer.ContextOf(evicted).trace_id;
  tracer.EndSpan(evicted);
  for (std::size_t i = 1; i < 10 * kCapacity; ++i) {
    tracer.EndSpan(tracer.BeginAsyncSpan("filler"));
  }
  EXPECT_EQ(tracer.finished_count(), kCapacity);
  EXPECT_EQ(tracer.dropped(), 9 * kCapacity);
  EXPECT_EQ(tracer.FinishedSpans().front().name, "filler");
  EXPECT_FALSE(tracer.ContextOf(evicted).valid());

  // A child of the evicted parent starts a fresh trace, as an unknown
  // parent does.
  const SpanId orphan = tracer.BeginAsyncSpan("orphan", "", evicted);
  const TraceId orphan_trace = tracer.ContextOf(orphan).trace_id;
  EXPECT_NE(orphan_trace, 0u);
  EXPECT_NE(orphan_trace, evicted_trace);
  for (const Span& span : tracer.FinishedSpans()) {
    EXPECT_NE(span.trace_id, orphan_trace);
  }
  tracer.EndSpan(orphan);
  EXPECT_EQ(tracer.dropped(), 9 * kCapacity + 1);
}

TEST_F(TracerTest, ChromeTraceExportRoundTripsThroughJsonParse) {
  Tracer& tracer = Tracer::Default();
  {
    ScopedSpan outer("client.fetch_page", "core");
    outer.AddAttribute("path", "/index \"quoted\"\n");
    clock_.AdvanceSimulated(0.001);
    ScopedSpan inner("genai.generate", "genai");
    clock_.AdvanceSimulated(0.002);
  }
  const std::string trace = ExportChromeTrace(tracer.FinishedSpans(), "obs_test");
  auto parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  const json::Value& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  const json::Value* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata events (process_name + thread_name per track) + 2 spans.
  const json::Value& meta = events->AsArray()[0];
  EXPECT_EQ(meta.GetString("ph"), "M");
  EXPECT_EQ(meta.GetString("name"), "process_name");

  int complete = 0;
  bool found_fetch = false;
  for (const json::Value& event : events->AsArray()) {
    const std::string ph = event.GetString("ph");
    ASSERT_TRUE(ph == "X" || ph == "M") << ph;
    if (ph != "X") continue;
    ++complete;
    EXPECT_GE(event.GetNumber("dur", -1.0), 0.0);
    if (event.GetString("name") == "client.fetch_page") {
      found_fetch = true;
      // 3 ms total at microsecond scale.
      EXPECT_NEAR(event.GetNumber("dur"), 3000.0, 1.0);
      const json::Value* args = event.Get("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->GetString("path"), "/index \"quoted\"\n");
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_TRUE(found_fetch);
}

TEST(Export, JsonLinesEveryLineParses) {
  Registry registry;
  registry.GetCounter("lines.counter").Add(7);
  registry.GetGauge("lines.gauge").Set(1.25);
  Histogram& h = registry.GetHistogram("lines.hist");
  h.Observe(0.5);
  h.Observe(1.5);
  const std::string out = ExportJsonLines(registry.Snapshot());
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < out.size()) {
    std::size_t end = out.find('\n', start);
    if (end == std::string::npos) end = out.size();
    const std::string line = out.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    auto parsed = json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_TRUE(parsed.value().Has("kind"));
    EXPECT_TRUE(parsed.value().Has("name"));
    if (parsed.value().GetString("name") == "lines.counter") {
      EXPECT_EQ(parsed.value().GetInt("value"), 7);
    }
    if (parsed.value().GetString("name") == "lines.hist") {
      EXPECT_EQ(parsed.value().GetString("kind"), "histogram");
      EXPECT_EQ(parsed.value().GetInt("count"), 2);
    }
  }
  EXPECT_EQ(lines, 3u);
}

}  // namespace
}  // namespace sww::obs
