// parallel_speedup — the machine-readable perf baseline for the parallel
// generation engine, over one six-asset generative page.  Results land in
// the shared BENCH_sww.json trajectory.
//
// The page is fetched through LocalSession with no pool and with pools of
// 1, 2, 4 and 8 workers (row tN is N threads; t0 is the serial path).  The
// two time axes are deliberately separated:
//   * modeled seconds — the device-second sum of the page's items.  The
//     modeled device renders one item at a time, so host threads may not
//     move it; it lands in the gated "modeled" section with the output
//     digest, since the bytes may not depend on the thread count either.
//   * real wall seconds — the median of five fetches per row, timed by
//     steady_clock, and its speedup over t0.  Ungated info: CI machines
//     vary and single-core runners cannot speed up at all.
//
// The Check() calls are the acceptance criteria: the benchmark fails when
// output bytes or modeled seconds diverge across thread counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "json/json.hpp"
#include "obs/bench.hpp"
#include "obs/registry.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace {

// Six equal-sized image assets: one item per worker up to six threads.
std::string MakeSixAssetPage() {
  static const char* kPrompts[6] = {
      "a goldfish in a sunlit bowl",      "a red lighthouse on a cliff",
      "a pine forest after fresh snow",   "a terracotta rooftop at dusk",
      "a sailboat crossing a calm bay",   "a stone bridge over a stream",
  };
  std::string html = "<html><head><title>parallel bench</title></head><body>";
  for (int i = 0; i < 6; ++i) {
    sww::json::Value meta{sww::json::Object{}};
    meta.Set("prompt", kPrompts[i]);
    meta.Set("name", "asset-" + std::to_string(i));
    meta.Set("width", 256);
    meta.Set("height", 192);
    html += "<div class=\"generated content\" content-type=\"img\" metadata='" +
            meta.Dump() + "'></div>";
  }
  html += "</body></html>";
  return html;
}

struct RunResult {
  int threads = 0;
  double device_seconds = 0.0;
  double real_wall_seconds = 0.0;
  double generated_bytes = 0.0;
  std::uint64_t output_digest = 0;
};

/// Digest of every output byte the user would see: files (sorted by path
/// in the std::map) then the final DOM.
std::uint64_t OutputDigest(const sww::core::PageFetch& fetch) {
  using namespace sww;
  std::uint64_t digest = util::Fnv1a64("");  // offset basis
  for (const auto& [path, content] : fetch.files) {
    digest = util::Fnv1a64(path, digest);
    if (!content.empty()) {
      digest = util::Fnv1a64(
          std::string_view(reinterpret_cast<const char*>(content.data()),
                           content.size()),
          digest);
    }
  }
  return util::Fnv1a64(fetch.final_html, digest);
}

/// Fetches the page kSamples times, each on a fresh session, and reports
/// the median real wall; every sample must produce the same bytes.
bool RunRow(const sww::core::ContentStore& store, sww::util::ThreadPool* pool,
            int threads, sww::obs::bench::State& state, RunResult& out) {
  using namespace sww;
  constexpr int kSamples = 5;
  const std::string where = " at t=" + std::to_string(threads);
  std::vector<double> walls;
  for (int sample = 0; sample < kSamples; ++sample) {
    obs::Registry::Default().Reset();
    core::LocalSession::Options options;
    options.client.generator.pool = pool;
    auto session = core::LocalSession::Start(&store, options);
    state.Check(session.ok(), "session" + where);
    if (!session.ok()) return false;
    const auto start = std::chrono::steady_clock::now();
    auto fetch = session.value()->FetchPage("/page");
    const auto stop = std::chrono::steady_clock::now();
    state.Check(fetch.ok(), "fetch" + where);
    if (!fetch.ok()) return false;
    walls.push_back(std::chrono::duration<double>(stop - start).count());
    const std::uint64_t digest = OutputDigest(fetch.value());
    if (sample > 0 && digest != out.output_digest) {
      state.Check(false, "output bytes diverged between samples" + where);
      return false;
    }
    out.output_digest = digest;
    out.device_seconds = fetch.value().generation_seconds;
    out.generated_bytes = 0.0;
    for (const auto& [path, content] : fetch.value().files) {
      out.generated_bytes += static_cast<double>(content.size());
    }
  }
  std::sort(walls.begin(), walls.end());
  out.threads = threads;
  out.real_wall_seconds = walls[kSamples / 2];
  return true;
}

void parallel_speedup(sww::obs::bench::State& state) {
  using namespace sww;
  core::ContentStore store;
  if (auto status = store.AddPage("/page", MakeSixAssetPage()); !status.ok()) {
    state.Check(false, status.ToString());
    return;
  }

  std::printf("parallel generation engine: speedup sweep\n\n");
  std::printf("page: 6 image assets, 256x192 each, laptop device profile\n\n");

  std::vector<RunResult> runs;
  {
    RunResult serial;
    if (!RunRow(store, nullptr, 0, state, serial)) return;
    runs.push_back(serial);  // threads=0 row: the no-pool serial path
  }
  for (int threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(threads);
    RunResult run;
    if (!RunRow(store, &pool, threads, state, run)) return;
    runs.push_back(run);
  }

  const RunResult& baseline = runs.front();
  std::printf("%8s %12s %12s %10s  %s\n", "threads", "modeled s", "real ms",
              "speedup", "digest");
  bool identical = true;
  bool host_free = true;
  for (const RunResult& run : runs) {
    const double speedup = run.real_wall_seconds > 0.0
                               ? baseline.real_wall_seconds / run.real_wall_seconds
                               : 0.0;
    identical = identical && run.output_digest == baseline.output_digest;
    host_free = host_free && run.device_seconds == baseline.device_seconds;
    std::printf("%8d %12.2f %12.2f %9.2fx  %016llx\n", run.threads,
                run.device_seconds, run.real_wall_seconds * 1e3, speedup,
                static_cast<unsigned long long>(run.output_digest));
    const std::string prefix = "t" + std::to_string(run.threads) + ".";
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(run.output_digest));
    state.ModeledText(prefix + "output_digest", digest_hex);
    // Real wall time is machine noise — context only, never gated.
    state.Info(prefix + "real_wall_seconds", run.real_wall_seconds);
    state.Info(prefix + "real_speedup", speedup);
  }
  state.Modeled("device_seconds", baseline.device_seconds);
  state.Modeled("generated_bytes", baseline.generated_bytes);

  std::printf("\nbyte-identical output across all host thread counts: %s\n",
              identical ? "yes" : "NO");
  std::printf("modeled seconds independent of host threads: %s\n",
              host_free ? "yes" : "NO");

  state.Check(identical, "output bytes diverged across thread counts");
  state.Check(host_free, "host threads moved the modeled generation seconds");
}
SWW_BENCHMARK(parallel_speedup);

}  // namespace
