#include "tools/load_run.hpp"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <string_view>

#include "core/session.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"

#include "load/report.hpp"
#include "load/spec.hpp"
#include "obs/export.hpp"
#include "obs/expose.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace sww::tools {

using util::Result;
using util::Status;

namespace {

/// mkdir -p, mirroring inspect_run's artifact writer.
Status EnsureDirectory(const std::string& path) {
  std::string prefix;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    prefix = path.substr(0, end);
    start = end + 1;
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return util::Error(util::ErrorCode::kIo,
                         "cannot create directory: " + prefix);
    }
  }
  return Status::Ok();
}

/// Raise the fd soft limit so a large --hold herd fits client-side.
void RaiseFdLimit(rlim_t want) {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= want) return;
  limit.rlim_cur = std::min(want, limit.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

}  // namespace

Result<LiveLoadResult> RunLiveLoad(const LoadOptions& options) {
  if (options.live_port <= 0 || options.live_port > 65535) {
    return util::Error(util::ErrorCode::kInvalidArgument,
                       "--live-port must be a TCP port");
  }
  const auto port = static_cast<std::uint16_t>(options.live_port);
  RaiseFdLimit(static_cast<rlim_t>(options.hold) + 512);

  LiveLoadResult result;

  // Idle herd: raw TCP connections that never speak HTTP/2 — they only
  // occupy the server's epoll interest set while the burst runs.
  std::vector<std::unique_ptr<net::Transport>> herd;
  herd.reserve(static_cast<std::size_t>(std::max(options.hold, 0)));
  for (int i = 0; i < options.hold; ++i) {
    auto transport = net::TcpConnect(port);
    if (!transport.ok()) return transport.error();
    herd.push_back(std::move(transport).value());
    ++result.held;
  }

  // Burst: one persistent session, sequential fetches through the live
  // scatter-gather write path.
  if (options.burst > 0) {
    auto session = core::LoopbackSession::Connect(port);
    if (!session.ok()) return session.error();
    for (int i = 0; i < options.burst; ++i) {
      auto fetch = session.value()->FetchPage("/");
      if (!fetch.ok()) continue;
      ++result.burst_ok;
      if (result.serve_mode.empty()) result.serve_mode = fetch.value().mode;
    }
    session.value()->Close();
  }
  herd.clear();

  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "live reactor load\n"
                "=================\n"
                "held connections : %d / %d\n"
                "burst requests   : %d / %d ok\n"
                "serve mode       : %s\n",
                result.held, options.hold, result.burst_ok, options.burst,
                result.serve_mode.empty() ? "(none)"
                                          : result.serve_mode.c_str());
  result.report = buffer;

  if (!options.out_dir.empty()) {
    if (Status status = EnsureDirectory(options.out_dir); !status.ok()) {
      return status.error();
    }
    if (Status status = obs::WriteTextFile(options.out_dir + "/live.report.txt",
                                           result.report);
        !status.ok()) {
      return status.error();
    }
  }
  return result;
}

Result<LoadResult> RunLoad(const LoadOptions& options) {
  std::vector<load::ScenarioSpec> specs;
  std::vector<std::string> names = options.scenario_names;
  if (names.empty() && options.spec_file.empty()) names.push_back("smoke");
  for (const std::string& name : names) {
    auto spec = load::FindBuiltinScenario(name);
    if (!spec.ok()) return spec.error();
    specs.push_back(std::move(spec.value()));
  }
  if (!options.spec_file.empty()) {
    auto text = obs::ReadTextFile(options.spec_file);
    if (!text.ok()) return text.error();
    auto parsed = load::ParseScenarioSpecText(text.value());
    if (!parsed.ok()) return parsed.error();
    for (load::ScenarioSpec& spec : parsed.value()) {
      specs.push_back(std::move(spec));
    }
  }

  // Start from a clean observability plane so artifacts depend only on
  // the specs (Registry::Reset zeroes but keeps instruments; a fresh
  // process has a stable series set).
  obs::Tracer::Default().Clear();
  obs::Registry::Default().Reset();
  obs::Journal::Default().Clear();

  std::unique_ptr<util::ThreadPool> pool;
  load::EngineOptions engine_options;
  if (options.threads > 0) {
    pool = std::make_unique<util::ThreadPool>(options.threads);
    engine_options.pool = pool.get();
  }

  LoadResult result;
  for (const load::ScenarioSpec& spec : specs) {
    auto run = load::RunScenario(spec, engine_options);
    if (!run.ok()) return run.error();
    result.scenarios.push_back(std::move(run.value()));
  }
  result.report = load::RenderLoadReport(result.scenarios);
  result.metrics_prom =
      obs::RenderPrometheusText(obs::Registry::Default().Snapshot());
  result.journal_jsonl = obs::RenderJournalJsonLines(obs::Journal::Default());

  if (!options.out_dir.empty()) {
    if (Status status = EnsureDirectory(options.out_dir); !status.ok()) {
      return status.error();
    }
    const struct {
      const char* name;
      const std::string* body;
    } artifacts[] = {
        {"load.report.txt", &result.report},
        {"load.metrics.prom", &result.metrics_prom},
        {"load.journal.jsonl", &result.journal_jsonl},
    };
    for (const auto& artifact : artifacts) {
      if (Status status = obs::WriteTextFile(
              options.out_dir + "/" + artifact.name, *artifact.body);
          !status.ok()) {
        return status.error();
      }
    }
  }
  return result;
}

int RunLoadMain(int argc, char** argv) {
  LoadOptions options;
  bool list = false;
  std::string print_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sww_load: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      const char* value = next_value("--scenario");
      if (value == nullptr) return 2;
      options.scenario_names.push_back(value);
    } else if (arg == "--spec") {
      const char* value = next_value("--spec");
      if (value == nullptr) return 2;
      options.spec_file = value;
    } else if (arg == "--out-dir") {
      const char* value = next_value("--out-dir");
      if (value == nullptr) return 2;
      options.out_dir = value;
    } else if (arg == "--threads") {
      const char* value = next_value("--threads");
      if (value == nullptr) return 2;
      const std::optional<int> threads =
          util::ParseIntInRange(value, 0, LoadOptions::kMaxThreads);
      if (!threads) {
        std::fprintf(stderr, "sww_load: --threads takes 0..%d, not '%s'\n",
                     LoadOptions::kMaxThreads, value);
        return 2;
      }
      options.threads = *threads;
    } else if (arg == "--live-port") {
      const char* value = next_value("--live-port");
      if (value == nullptr) return 2;
      options.live_port = std::atoi(value);
    } else if (arg == "--hold") {
      const char* value = next_value("--hold");
      if (value == nullptr) return 2;
      options.hold = std::atoi(value);
    } else if (arg == "--burst") {
      const char* value = next_value("--burst");
      if (value == nullptr) return 2;
      options.burst = std::atoi(value);
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--print-spec") {
      const char* value = next_value("--print-spec");
      if (value == nullptr) return 2;
      print_spec = value;
    } else {
      std::fprintf(stderr,
                   "usage: sww_load [--scenario NAME]... [--spec FILE]\n"
                   "                [--out-dir DIR] [--threads N]\n"
                   "                [--list] [--print-spec NAME]\n"
                   "                [--live-port P --hold N --burst M]\n");
      return 2;
    }
  }

  if (list) {
    for (const load::ScenarioSpec& spec : load::BuiltinScenarios()) {
      std::printf("%s\n", spec.name.c_str());
    }
    return 0;
  }
  if (!print_spec.empty()) {
    auto spec = load::FindBuiltinScenario(print_spec);
    if (!spec.ok()) {
      std::fprintf(stderr, "sww_load: %s\n",
                   spec.error().ToString().c_str());
      return 1;
    }
    std::printf("%s\n",
                load::ScenarioSpecToJson(spec.value()).DumpPretty().c_str());
    return 0;
  }

  if (options.live_port != 0) {
    auto live = RunLiveLoad(options);
    if (!live.ok()) {
      std::fprintf(stderr, "sww_load: %s\n", live.error().ToString().c_str());
      return 1;
    }
    std::fputs(live.value().report.c_str(), stdout);
    return 0;
  }

  auto result = RunLoad(options);
  if (!result.ok()) {
    std::fprintf(stderr, "sww_load: %s\n", result.error().ToString().c_str());
    return 1;
  }
  std::fputs(result.value().report.c_str(), stdout);
  return 0;
}

}  // namespace sww::tools
