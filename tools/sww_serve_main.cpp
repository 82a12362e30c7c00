// sww_serve — a self-hosted GenerativeServer over loopback TCP, mainly
// so CI (and humans) can point sww_top, sww_load --live, or curl-alikes
// at a live /metrics endpoint.  Serves the goldfish page at "/" plus the
// telemetry routes.
//
// Runs on the epoll reactor: --shards SO_REUSEPORT accept shards, each
// an event loop holding thousands of concurrent connections.  Exits
// after --max-connections connections have *closed* (0 = run until
// killed), preserving the old one-at-a-time semantics for CI scrapes.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string_view>

#include "core/page_builder.hpp"
#include "core/reactor_host.hpp"
#include "net/reactor_server.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace sww;

  std::uint16_t port = 0;
  int max_connections = 0;
  int shards = 1;
  std::uint64_t idle_timeout_ms = 60'000;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--port") {
      const char* value = next("--port");
      if (value == nullptr) return 2;
      port = static_cast<std::uint16_t>(std::atoi(value));
    } else if (arg == "--max-connections") {
      const char* value = next("--max-connections");
      if (value == nullptr) return 2;
      max_connections = std::atoi(value);
    } else if (arg == "--shards") {
      const char* value = next("--shards");
      if (value == nullptr) return 2;
      const std::optional<int> parsed =
          util::ParseIntInRange(value, 0, net::ReactorServer::kMaxShards);
      if (!parsed) {
        std::fprintf(stderr, "--shards takes 0..%d, not '%s'\n",
                     net::ReactorServer::kMaxShards, value);
        return 2;
      }
      shards = *parsed;
    } else if (arg == "--idle-timeout-ms") {
      const char* value = next("--idle-timeout-ms");
      if (value == nullptr) return 2;
      idle_timeout_ms = static_cast<std::uint64_t>(std::atoll(value));
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--port N] [--max-connections N] [--shards N]\n"
          "          [--idle-timeout-ms N]\n"
          "  --port 0 picks a free port (printed on stdout)\n"
          "  --shards N runs N SO_REUSEPORT accept shards (default 1;\n"
          "             0 sizes to the hardware, at most %d)\n",
          argv[0], net::ReactorServer::kMaxShards);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  core::ContentStore store;
  if (auto status = store.AddPage("/", core::MakeGoldfishPage());
      !status.ok()) {
    std::fprintf(stderr, "AddPage: %s\n", status.ToString().c_str());
    return 1;
  }

  std::mutex mutex;
  std::condition_variable all_closed;
  int closed = 0;

  core::ReactorHost::Options options;
  options.server.port = port;
  options.server.shards = shards;
  options.server.idle_timeout_ms = idle_timeout_ms;
  options.on_connection_close = [&](const core::GenerativeServer& server) {
    int index;
    {
      std::lock_guard<std::mutex> lock(mutex);
      index = ++closed;
    }
    std::printf("connection %d closed (%llu requests served)\n", index,
                static_cast<unsigned long long>(server.stats().requests));
    std::fflush(stdout);
    all_closed.notify_all();
  };

  auto host = core::ReactorHost::Start(&store, std::move(options));
  if (!host.ok()) {
    std::fprintf(stderr, "start: %s\n", host.error().ToString().c_str());
    return 1;
  }
  std::printf("listening 127.0.0.1:%u\n", host.value()->port());
  std::fflush(stdout);

  if (max_connections == 0) {
    // Run until killed.
    std::unique_lock<std::mutex> lock(mutex);
    all_closed.wait(lock, [] { return false; });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_closed.wait(lock, [&] { return closed >= max_connections; });
  }
  host.value()->Shutdown();
  return 0;
}
