#include "obs/bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "metrics/stats.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sww::obs::bench {

WallStats SummarizeWall(const std::vector<double>& sample_ns) {
  WallStats stats;
  if (sample_ns.empty()) return stats;
  stats.iterations = sample_ns.size();
  double total = 0.0;
  double min = sample_ns.front();
  for (double v : sample_ns) {
    total += v;
    min = std::min(min, v);
  }
  stats.total_ns = total;
  stats.min_ns = min;
  stats.mean_ns = total / static_cast<double>(sample_ns.size());
  stats.median_ns = metrics::Percentile(sample_ns, 50.0);
  stats.p95_ns = metrics::Percentile(sample_ns, 95.0);
  stats.mad_ns = metrics::MedianAbsoluteDeviation(sample_ns);
  return stats;
}

WallStats TimeKernel(const std::function<void()>& kernel,
                     const TimingOptions& options, Clock* clock) {
  return TimeKernels({kernel}, options, clock).front();
}

std::vector<WallStats> TimeKernels(
    const std::vector<std::function<void()>>& kernels,
    const TimingOptions& options, Clock* clock) {
  if (kernels.empty()) return {};
  SystemClock system_clock;
  Clock* source = clock != nullptr ? clock : &system_clock;
  const int warmup = std::max(0, options.warmup_iterations);
  const int min_iterations = std::max(1, options.min_iterations);
  const int max_iterations = std::max(min_iterations, options.max_iterations);
  const double min_total_ns = std::max(0.0, options.min_total_seconds) * 1e9;

  for (int i = 0; i < warmup; ++i) {
    for (const auto& kernel : kernels) kernel();
  }

  std::vector<std::vector<double>> samples(kernels.size());
  std::vector<double> total_ns(kernels.size(), 0.0);
  for (int round = 1; round <= max_iterations; ++round) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const std::uint64_t start = source->NowNanos();
      kernels[k]();
      const std::uint64_t stop = source->NowNanos();
      const double elapsed =
          stop > start ? static_cast<double>(stop - start) : 0.0;
      samples[k].push_back(elapsed);
      total_ns[k] += elapsed;
    }
    if (round >= min_iterations &&
        *std::min_element(total_ns.begin(), total_ns.end()) >= min_total_ns) {
      break;
    }
  }
  std::vector<WallStats> stats;
  for (const std::vector<double>& kernel_samples : samples) {
    stats.push_back(SummarizeWall(kernel_samples));
  }
  return stats;
}

double CanonicalizeModeled(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return std::strtod(buf, nullptr);
}

void State::Modeled(std::string_view key, double value) {
  result_.modeled[std::string(key)] = CanonicalizeModeled(value);
}

void State::ModeledText(std::string_view key, std::string_view value) {
  result_.modeled_text[std::string(key)] = std::string(value);
}

void State::Info(std::string_view key, double value) {
  result_.info[std::string(key)] = value;
}

void State::Time(std::string_view label, const std::function<void()>& kernel) {
  result_.wall[std::string(label)] = TimeKernel(kernel, timing_);
}

void State::TimeInterleaved(std::string_view label_a,
                            const std::function<void()>& a,
                            std::string_view label_b,
                            const std::function<void()>& b) {
  const std::vector<WallStats> stats = TimeKernels({a, b}, timing_);
  result_.wall[std::string(label_a)] = stats[0];
  result_.wall[std::string(label_b)] = stats[1];
}

void State::Check(bool ok, std::string_view what) {
  if (!ok) result_.failures.emplace_back(what);
}

Suite& Suite::Default() {
  static Suite* suite = new Suite();
  return *suite;
}

void Suite::Register(std::string name, BenchFn fn) {
  benchmarks_.emplace_back(std::move(name), fn);
}

std::vector<std::pair<std::string, BenchFn>> Suite::Sorted() const {
  auto sorted = benchmarks_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sorted;
}

namespace {

json::Value WallToJson(const WallStats& stats) {
  json::Value out{json::Object{}};
  out.Set("iterations", stats.iterations);
  out.Set("total_ns", stats.total_ns);
  out.Set("min_ns", stats.min_ns);
  out.Set("mean_ns", stats.mean_ns);
  out.Set("median_ns", stats.median_ns);
  out.Set("p95_ns", stats.p95_ns);
  out.Set("mad_ns", stats.mad_ns);
  return out;
}

}  // namespace

json::Value ResultsToJson(const std::vector<BenchResult>& results,
                          bool modeled_only) {
  json::Array benchmarks;
  for (const BenchResult& result : results) {
    json::Value entry{json::Object{}};
    entry.Set("name", result.name);
    json::Value modeled{json::Object{}};
    for (const auto& [key, value] : result.modeled) modeled.Set(key, value);
    entry.Set("modeled", std::move(modeled));
    json::Value modeled_text{json::Object{}};
    for (const auto& [key, value] : result.modeled_text) {
      modeled_text.Set(key, value);
    }
    entry.Set("modeled_text", std::move(modeled_text));
    if (!modeled_only) {
      json::Value info{json::Object{}};
      for (const auto& [key, value] : result.info) info.Set(key, value);
      entry.Set("info", std::move(info));
      json::Value wall{json::Object{}};
      for (const auto& [label, stats] : result.wall) {
        wall.Set(label, WallToJson(stats));
      }
      entry.Set("wall", std::move(wall));
    }
    if (!result.failures.empty()) {
      json::Array failures;
      for (const std::string& failure : result.failures) {
        failures.emplace_back(failure);
      }
      entry.Set("failures", json::Value(std::move(failures)));
    }
    benchmarks.push_back(std::move(entry));
  }
  json::Value root{json::Object{}};
  root.Set("schema", std::string(kSchemaVersion));
  root.Set("generator", "sww_bench");
  root.Set("benchmarks", json::Value(std::move(benchmarks)));
  return root;
}

util::Result<json::Value> AppendTrajectoryRun(const json::Value* existing,
                                              json::Value flat_report) {
  json::Array runs;
  std::int64_t last_run_id = 0;
  if (existing != nullptr && existing->is_object()) {
    const std::string schema = existing->GetString("schema");
    if (schema == kSchemaVersion) {
      // Flat pre-trajectory baseline: keep it as run 1.
      json::Value run{json::Object{}};
      run.Set("run_id", std::int64_t{1});
      const json::Value* benchmarks = existing->Get("benchmarks");
      run.Set("benchmarks", benchmarks != nullptr ? *benchmarks
                                                  : json::Value(json::Array{}));
      runs.push_back(std::move(run));
      last_run_id = 1;
    } else if (schema == kTrajectorySchemaVersion) {
      const json::Value* existing_runs = existing->Get("runs");
      if (existing_runs == nullptr || !existing_runs->is_array()) {
        return util::Error(util::ErrorCode::kInvalidArgument,
                           "trajectory file has no runs array");
      }
      for (const json::Value& run : existing_runs->AsArray()) {
        const std::int64_t run_id = run.GetInt("run_id");
        if (run_id <= last_run_id) {
          return util::Error(
              util::ErrorCode::kInvalidArgument,
              "trajectory run_ids not strictly increasing at run " +
                  std::to_string(run_id));
        }
        last_run_id = run_id;
        runs.push_back(run);
      }
    } else {
      return util::Error(util::ErrorCode::kInvalidArgument,
                         "unknown bench schema \"" + schema + "\"");
    }
  }
  json::Value run{json::Object{}};
  run.Set("run_id", last_run_id + 1);
  json::Value benchmarks{json::Array{}};
  if (flat_report.is_object()) {
    json::Object& report = flat_report.AsObject();
    if (auto it = report.find("benchmarks"); it != report.end()) {
      benchmarks = std::move(it->second);
    }
  }
  run.Set("benchmarks", std::move(benchmarks));
  runs.push_back(std::move(run));

  json::Value root{json::Object{}};
  root.Set("schema", std::string(kTrajectorySchemaVersion));
  root.Set("generator", "sww_bench");
  root.Set("runs", json::Value(std::move(runs)));
  return root;
}

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--filter SUBSTR] [--json PATH]\n"
               "          [--modeled-only] [--min-time SECONDS]\n",
               argv0);
}

}  // namespace

int RunBenchMain(int argc, char** argv) {
  bool list_only = false;
  bool modeled_only = false;
  std::string filter;
  std::string json_path;
  TimingOptions timing;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--modeled-only") {
      modeled_only = true;
    } else if (arg == "--filter") {
      const char* value = next("--filter");
      if (value == nullptr) return 2;
      filter = value;
    } else if (arg == "--json") {
      const char* value = next("--json");
      if (value == nullptr) return 2;
      json_path = value;
    } else if (arg == "--min-time") {
      const char* value = next("--min-time");
      if (value == nullptr) return 2;
      timing.min_total_seconds = std::strtod(value, nullptr);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage(argv[0]);
      return 2;
    }
  }

  const auto benchmarks = Suite::Default().Sorted();
  std::vector<std::pair<std::string, BenchFn>> selected;
  for (const auto& entry : benchmarks) {
    if (filter.empty() || entry.first.find(filter) != std::string::npos) {
      selected.push_back(entry);
    }
  }

  if (list_only) {
    for (const auto& [name, fn] : selected) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no benchmarks match filter \"%s\"\n", filter.c_str());
    return 2;
  }

  std::vector<BenchResult> results;
  bool all_ok = true;
  for (const auto& [name, fn] : selected) {
    std::printf("=== [%zu/%zu] %s ===\n", results.size() + 1, selected.size(),
                name.c_str());
    // Each benchmark starts from clean process-wide telemetry: no bench
    // sees another's counters, spans, or taps.
    Registry::Default().Reset();
    Tracer::Default().Clear();
    Tracer::Default().SetClock(nullptr);
    FlightRecorder::Default().Clear();
    State state(name, timing);
    fn(state);
    Tracer::Default().SetClock(nullptr);
    BenchResult result = state.TakeResult();
    for (const std::string& failure : result.failures) {
      std::fprintf(stderr, "FAIL %s: %s\n", name.c_str(), failure.c_str());
      all_ok = false;
    }
    results.push_back(std::move(result));
    std::printf("\n");
  }

  if (!json_path.empty()) {
    // --json appends: the file is a trajectory (kTrajectorySchemaVersion)
    // that grows by one run per invocation.  A missing or empty file
    // starts the trajectory; a flat sww-bench/1 file becomes run 1.
    json::Value existing;
    bool have_existing = false;
    if (auto contents = ReadTextFile(json_path); contents.ok()) {
      auto parsed = json::Parse(contents.value());
      if (!parsed.ok()) {
        std::fprintf(stderr, "cannot parse existing %s: %s\n",
                     json_path.c_str(), parsed.error().ToString().c_str());
        return 1;
      }
      existing = std::move(parsed.value());
      have_existing = true;
    }
    auto trajectory = AppendTrajectoryRun(
        have_existing ? &existing : nullptr,
        ResultsToJson(results, modeled_only));
    if (!trajectory.ok()) {
      std::fprintf(stderr, "cannot append run to %s: %s\n", json_path.c_str(),
                   trajectory.error().ToString().c_str());
      return 1;
    }
    const json::Value& report = trajectory.value();
    const std::size_t runs = report.Get("runs")->AsArray().size();
    if (auto status = WriteTextFile(json_path, report.DumpPretty() + "\n");
        !status.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu benchmarks, run %zu, schema %s)\n",
                json_path.c_str(), results.size(), runs,
                std::string(kTrajectorySchemaVersion).c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace sww::obs::bench
