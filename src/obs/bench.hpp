// bench.hpp — the shared micro-benchmark framework behind `sww_bench`.
//
// Every bench/bench_*.cpp used to hand-roll its own timing and print
// free-form text, so the repository had no machine-readable performance
// trajectory at all.  This framework gives each benchmark three surfaces
// and one writer:
//
//   * modeled metrics  — deterministic numbers pulled from the simulation
//     substrate (ManualClock seconds, energy/carbon models, registry
//     counters, output digests).  Byte-identical across runs and gated
//     EXACTLY by tools/bench_compare: any drift is a real behaviour change.
//   * wall timings     — State::Time runs a kernel through a warmup +
//     adaptive-iteration protocol and keeps robust statistics
//     (min/median/p95/MAD over per-iteration nanoseconds).  Machine noise
//     lives here; bench_compare gates these with a configurable tolerance.
//   * info metrics     — context numbers (real throughput, host-dependent
//     byte rates) recorded but never gated.
//
// Registration is one macro next to the benchmark body:
//
//   void my_case(sww::obs::bench::State& state) { ... }
//   SWW_BENCHMARK(my_case);
//
// and the single `sww_bench` runner (`--list`, `--filter`, `--json`)
// executes every registered case and emits the versioned BENCH_sww.json
// schema (kSchemaVersion) through src/json — one writer, one schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "obs/clock.hpp"

namespace sww::obs::bench {

/// Schema identifier of one flat run report (the ResultsToJson document);
/// bench_compare refuses to diff files whose versions disagree.
inline constexpr std::string_view kSchemaVersion = "sww-bench/1";

/// Schema identifier of the *trajectory* document BENCH_sww.json holds:
///   { "schema": "sww-bench/2", "generator": "sww_bench",
///     "runs": [ { "run_id": 1, "benchmarks": [...] }, ... ] }
/// `sww_bench --json` appends one run per invocation (run_id strictly
/// increasing), so the checked-in file is a growing performance history
/// rather than a single overwritten snapshot.  bench_compare reads the
/// LAST run of a trajectory and still accepts flat sww-bench/1 files.
inline constexpr std::string_view kTrajectorySchemaVersion = "sww-bench/2";

/// Robust statistics over the measured (post-warmup) iterations of one
/// timed kernel.  All durations in nanoseconds.
struct WallStats {
  std::size_t iterations = 0;  ///< measured iterations (warmup excluded)
  double total_ns = 0.0;
  double min_ns = 0.0;
  double mean_ns = 0.0;
  double median_ns = 0.0;
  double p95_ns = 0.0;
  double mad_ns = 0.0;  ///< median absolute deviation
};

/// Fold per-iteration samples into WallStats (median/p95 by linear
/// interpolation, MAD via metrics::MedianAbsoluteDeviation).  Pure —
/// exercised directly by the stats-kernel tests.
WallStats SummarizeWall(const std::vector<double>& sample_ns);

/// The warmup + adaptive-iteration protocol.  The kernel runs
/// `warmup_iterations` times untimed-for-stats (samples discarded), then
/// keeps running until both `min_iterations` measured samples exist and
/// `min_total_seconds` of measured time has accumulated, capped at
/// `max_iterations`.
struct TimingOptions {
  int warmup_iterations = 3;
  int min_iterations = 8;
  int max_iterations = 20000;
  double min_total_seconds = 0.02;
};

/// Run `kernel` through the timing protocol reading time from `clock`
/// (nullptr → steady_clock).  Injectable clock keeps the protocol
/// testable: a ManualClock advanced inside the kernel proves warmup
/// exclusion and adaptive stop without wall-time flakiness.
WallStats TimeKernel(const std::function<void()>& kernel,
                     const TimingOptions& options, Clock* clock = nullptr);

/// The same protocol over several kernels, interleaved: each round, warmup
/// and measured alike, runs every kernel once in order, so a change in
/// host load during the run reaches all of them alike.  Stops once every
/// kernel has `min_iterations` samples and `min_total_seconds` of measured
/// time, or after `max_iterations` rounds.  One WallStats per kernel, in
/// order; TimeKernel is this with one kernel.
std::vector<WallStats> TimeKernels(
    const std::vector<std::function<void()>>& kernels,
    const TimingOptions& options, Clock* clock = nullptr);

/// Round to 9 significant digits (snprintf "%.9g" and back).  Every
/// modeled metric passes through this before landing in the JSON, so the
/// exact-gate survives last-ulp libm differences across toolchains while
/// remaining byte-stable for any real behaviour change.
double CanonicalizeModeled(double value);

/// Everything one benchmark reported.
struct BenchResult {
  std::string name;
  std::map<std::string, double> modeled;       ///< exact-gated
  std::map<std::string, std::string> modeled_text;  ///< exact-gated (digests…)
  std::map<std::string, double> info;          ///< never gated
  std::map<std::string, WallStats> wall;       ///< tolerance-gated
  std::vector<std::string> failures;           ///< Check() violations

  bool ok() const { return failures.empty(); }
};

/// Handed to each benchmark body; collects its report.
class State {
 public:
  explicit State(std::string name, TimingOptions timing = {})
      : timing_(timing) {
    result_.name = std::move(name);
  }

  /// Deterministic metric — gated exactly by bench_compare.
  void Modeled(std::string_view key, double value);
  /// Deterministic text metric (output digests, negotiated modes).
  void ModeledText(std::string_view key, std::string_view value);
  /// Context-only metric (real wall seconds, host throughput) — recorded
  /// in the JSON but never gated.
  void Info(std::string_view key, double value);
  /// Time a kernel under the warmup + adaptive protocol; stats land under
  /// `label` in the wall section.
  void Time(std::string_view label, const std::function<void()>& kernel);
  /// Time two kernels interleaved (TimeKernels) — the form for a pair
  /// whose ratio is the result, such as a scalar and a vector lane.
  void TimeInterleaved(std::string_view label_a, const std::function<void()>& a,
                       std::string_view label_b, const std::function<void()>& b);
  /// Record a failed invariant; the runner exits non-zero if any
  /// benchmark checked false.
  void Check(bool ok, std::string_view what);

  const TimingOptions& timing() const { return timing_; }
  const BenchResult& result() const { return result_; }
  BenchResult TakeResult() { return std::move(result_); }

 private:
  TimingOptions timing_;
  BenchResult result_;
};

using BenchFn = void (*)(State&);

/// The process-wide benchmark registry.  Registration order is static-init
/// order across translation units, so consumers always see the list
/// sorted by name — the JSON output must not depend on link order.
class Suite {
 public:
  static Suite& Default();

  void Register(std::string name, BenchFn fn);
  /// All registered benchmarks, sorted by name.
  std::vector<std::pair<std::string, BenchFn>> Sorted() const;

 private:
  std::vector<std::pair<std::string, BenchFn>> benchmarks_;
};

struct Registrar {
  Registrar(const char* name, BenchFn fn) {
    Suite::Default().Register(name, fn);
  }
};

/// Register `fn` (a `void fn(State&)`) under its own identifier.
#define SWW_BENCHMARK(fn) \
  static ::sww::obs::bench::Registrar sww_bench_registrar_##fn(#fn, fn)

/// Serialize results into the BENCH_sww.json schema.  With `modeled_only`
/// the wall and info sections are omitted — the form the checked-in CI
/// baseline uses, byte-identical across runs and machines.
json::Value ResultsToJson(const std::vector<BenchResult>& results,
                          bool modeled_only);

/// Fold a flat run report (a ResultsToJson document) onto an existing
/// trajectory, returning the sww-bench/2 document to write back:
///   * `existing` null / not an object → trajectory with this run as run 1
///   * `existing` is a flat sww-bench/1 report → it becomes run 1, the new
///     report run 2 (upgrades the pre-trajectory checked-in baseline)
///   * `existing` is a sww-bench/2 trajectory → append run_id = last + 1
/// Errors (kInvalidArgument) on unknown schemas or a corrupt runs array —
/// the runner refuses to clobber a file it cannot interpret.
util::Result<json::Value> AppendTrajectoryRun(const json::Value* existing,
                                              json::Value flat_report);

/// The `sww_bench` entry point: --list | --filter <substr> | --json <path>
/// | --modeled-only | --min-time <seconds>.  Returns the process exit
/// code (non-zero when any benchmark Check failed or output could not be
/// written).
int RunBenchMain(int argc, char** argv);

}  // namespace sww::obs::bench
