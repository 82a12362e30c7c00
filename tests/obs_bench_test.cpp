// Tests for the sww_bench framework's stats kernel, timing protocol, and
// JSON writer — the pieces the CI regression gate's guarantees rest on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/bench.hpp"
#include "obs/clock.hpp"

namespace sww::obs::bench {
namespace {

// --- SummarizeWall: robust stats on known vectors ---------------------------

TEST(SummarizeWall, KnownVectorOddLength) {
  // Sorted: 1 2 3 4 100 — the outlier must not move median or MAD much.
  const WallStats stats = SummarizeWall({3.0, 1.0, 100.0, 2.0, 4.0});
  EXPECT_EQ(stats.iterations, 5u);
  EXPECT_DOUBLE_EQ(stats.total_ns, 110.0);
  EXPECT_DOUBLE_EQ(stats.min_ns, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_ns, 22.0);
  EXPECT_DOUBLE_EQ(stats.median_ns, 3.0);
  // |x - 3| = {2, 1, 97, 0, 1} → sorted {0, 1, 1, 2, 97} → median 1.
  EXPECT_DOUBLE_EQ(stats.mad_ns, 1.0);
}

TEST(SummarizeWall, KnownVectorEvenLength) {
  const WallStats stats = SummarizeWall({10.0, 20.0, 30.0, 40.0});
  EXPECT_EQ(stats.iterations, 4u);
  EXPECT_DOUBLE_EQ(stats.median_ns, 25.0);
  EXPECT_DOUBLE_EQ(stats.mean_ns, 25.0);
  EXPECT_DOUBLE_EQ(stats.min_ns, 10.0);
}

TEST(SummarizeWall, P95OnTwentySamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 20; ++i) samples.push_back(static_cast<double>(i));
  const WallStats stats = SummarizeWall(samples);
  // Linear interpolation at rank 0.95*(n-1) = 18.05 → 19.05.
  EXPECT_NEAR(stats.p95_ns, 19.05, 1e-9);
  EXPECT_DOUBLE_EQ(stats.median_ns, 10.5);
}

TEST(SummarizeWall, EmptyIsAllZero) {
  const WallStats stats = SummarizeWall({});
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_DOUBLE_EQ(stats.total_ns, 0.0);
  EXPECT_DOUBLE_EQ(stats.median_ns, 0.0);
  EXPECT_DOUBLE_EQ(stats.mad_ns, 0.0);
}

// --- TimeKernel: warmup exclusion + adaptive stop ---------------------------

TEST(TimeKernel, WarmupIterationsAreExcludedFromStats) {
  // The kernel costs 1000 ns on the first three (warmup) calls and 10 ns
  // after; if warmup leaked into the samples the median would be wrong.
  ManualClock clock;
  int calls = 0;
  TimingOptions options;
  options.warmup_iterations = 3;
  options.min_iterations = 5;
  options.max_iterations = 5;
  options.min_total_seconds = 0.0;
  const WallStats stats = TimeKernel(
      [&] {
        ++calls;
        clock.AdvanceNanos(calls <= 3 ? 1000 : 10);
      },
      options, &clock);
  EXPECT_EQ(calls, 8);  // 3 warmup + 5 measured
  EXPECT_EQ(stats.iterations, 5u);
  EXPECT_DOUBLE_EQ(stats.median_ns, 10.0);
  EXPECT_DOUBLE_EQ(stats.min_ns, 10.0);
  EXPECT_DOUBLE_EQ(stats.total_ns, 50.0);
}

TEST(TimeKernel, AdaptiveStopRunsUntilMinTotalTime) {
  // Each iteration advances 1 ms; min_total 0.01 s → exactly 10 measured
  // iterations even though min_iterations is lower.
  ManualClock clock;
  TimingOptions options;
  options.warmup_iterations = 0;
  options.min_iterations = 2;
  options.max_iterations = 1000;
  options.min_total_seconds = 0.01;
  const WallStats stats =
      TimeKernel([&] { clock.AdvanceNanos(1000000); }, options, &clock);
  EXPECT_EQ(stats.iterations, 10u);
  EXPECT_DOUBLE_EQ(stats.total_ns, 1e7);
}

TEST(TimeKernel, MaxIterationsCapsAZeroCostKernel) {
  // A kernel that never advances the clock can never satisfy the time
  // floor; the cap must stop it.
  ManualClock clock;
  TimingOptions options;
  options.warmup_iterations = 0;
  options.min_iterations = 4;
  options.max_iterations = 64;
  options.min_total_seconds = 1.0;
  const WallStats stats = TimeKernel([] {}, options, &clock);
  EXPECT_EQ(stats.iterations, 64u);
  EXPECT_DOUBLE_EQ(stats.total_ns, 0.0);
}

TEST(TimeKernels, InterleavesRoundsUntilEveryKernelHasItsTime) {
  // Kernel a costs 1 ms and b 0.25 ms; every round (the warmup one too)
  // runs a then b, and measuring stops when b, the cheaper one, has
  // 2 ms of samples: 8 rounds.
  ManualClock clock;
  std::string order;
  TimingOptions options;
  options.warmup_iterations = 1;
  options.min_iterations = 2;
  options.max_iterations = 1000;
  options.min_total_seconds = 0.002;
  const std::vector<WallStats> stats = TimeKernels(
      {[&] {
         order += 'a';
         clock.AdvanceNanos(1000000);
       },
       [&] {
         order += 'b';
         clock.AdvanceNanos(250000);
       }},
      options, &clock);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(order, "ababababababababab");  // 1 warmup + 8 measured rounds
  EXPECT_EQ(stats[0].iterations, 8u);
  EXPECT_EQ(stats[1].iterations, 8u);
  EXPECT_DOUBLE_EQ(stats[0].median_ns, 1e6);
  EXPECT_DOUBLE_EQ(stats[1].median_ns, 2.5e5);
  EXPECT_TRUE(TimeKernels({}, options, &clock).empty());
}

// --- CanonicalizeModeled ----------------------------------------------------

TEST(CanonicalizeModeled, RoundsToNineSignificantDigits) {
  EXPECT_DOUBLE_EQ(CanonicalizeModeled(1.0), 1.0);
  EXPECT_DOUBLE_EQ(CanonicalizeModeled(0.1 + 0.2), 0.3);
  EXPECT_DOUBLE_EQ(CanonicalizeModeled(123456789.0), 123456789.0);
  // The tenth digit is dropped: values a last-ulp apart collapse together.
  EXPECT_DOUBLE_EQ(CanonicalizeModeled(1.2345678912),
                   CanonicalizeModeled(1.2345678917));
}

// --- State + ResultsToJson: deterministic serialization ---------------------

BenchResult MakeSampleResult() {
  State state("sample");
  // Insertion order differs from key order on purpose: the JSON must come
  // out sorted either way.
  state.Modeled("zeta", 2.5);
  state.Modeled("alpha", 1.0 / 3.0);
  state.ModeledText("digest", "00ff00ff00ff00ff");
  state.Info("real_seconds", 0.123);
  return state.TakeResult();
}

TEST(ResultsToJson, ModeledSectionsAreByteIdenticalAcrossRuns) {
  const std::string a =
      ResultsToJson({MakeSampleResult()}, /*modeled_only=*/true).Dump();
  const std::string b =
      ResultsToJson({MakeSampleResult()}, /*modeled_only=*/true).Dump();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"sww-bench/1\""), std::string::npos);
  EXPECT_NE(a.find("\"generator\":\"sww_bench\""), std::string::npos);
}

TEST(ResultsToJson, ModeledOnlyOmitsWallAndInfo) {
  State state("s");
  state.Info("noise", 42.0);
  state.Time("kernel", [] {});
  const std::string lean =
      ResultsToJson({state.result()}, /*modeled_only=*/true).Dump();
  const std::string full =
      ResultsToJson({state.result()}, /*modeled_only=*/false).Dump();
  EXPECT_EQ(lean.find("\"wall\""), std::string::npos);
  EXPECT_EQ(lean.find("\"info\""), std::string::npos);
  EXPECT_NE(full.find("\"wall\""), std::string::npos);
  EXPECT_NE(full.find("\"info\""), std::string::npos);
  EXPECT_NE(full.find("\"median_ns\""), std::string::npos);
}

TEST(ResultsToJson, FailuresAppearOnlyWhenPresent) {
  State ok_state("ok");
  ok_state.Check(true, "fine");
  State bad_state("bad");
  bad_state.Check(false, "invariant violated");
  EXPECT_TRUE(ok_state.result().ok());
  EXPECT_FALSE(bad_state.result().ok());
  const std::string dump =
      ResultsToJson({ok_state.result(), bad_state.result()}, true).Dump();
  EXPECT_NE(dump.find("invariant violated"), std::string::npos);
  EXPECT_EQ(dump.find("fine"), std::string::npos);
}

TEST(Suite, RegisteredBenchmarksComeBackSorted) {
  Suite suite;
  suite.Register("zebra", nullptr);
  suite.Register("apple", nullptr);
  suite.Register("mango", nullptr);
  const auto sorted = suite.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, "apple");
  EXPECT_EQ(sorted[1].first, "mango");
  EXPECT_EQ(sorted[2].first, "zebra");
}

}  // namespace
}  // namespace sww::obs::bench
