// reactor_server.hpp — the C10K event-loop server.
//
// N accept shards, each a full vertical slice on a thread the server
// owns: its own SO_REUSEPORT listener on the shared port (the kernel
// load-balances incoming connections across shards), its own epoll
// Reactor with timer wheel, and its own connection table.  A connection
// lives its whole life on the shard that accepted it — no cross-core
// handoff, no locks on the hot path, and the single-threaded
// http2::Connection / application state machines stay single-threaded.
//
// Per connection the shard runs the readiness loop:
//
//   EPOLLIN  → TcpTransport::Read drains to EAGAIN → Connection::Receive
//            → app.OnEvents() → WriteQueue::Flush (scatter-gather writev)
//   EPOLLOUT → WriteQueue::Flush staged residue; resume paused reads
//   timers   → idle timeout, SETTINGS-ack deadline, GOAWAY drain
//
// Backpressure: when a peer stops reading, the WriteQueue backlog crosses
// Options::max_backlog_bytes and the shard stops *reading* from that
// connection (data stays in the kernel buffer, TCP pushes back), resuming
// below the low watermark.  Memory per connection is therefore bounded no
// matter how the peer behaves.
//
// net:: cannot depend on core::, so the application protocol plugs in via
// ReactorApp — core::ReactorHost adapts GenerativeServer onto it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "http2/connection.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/write_queue.hpp"
#include "util/error.hpp"

namespace sww::net {

/// One connection's application half, driven by the owning shard.  All
/// calls arrive on the shard thread.
class ReactorApp {
 public:
  virtual ~ReactorApp() = default;
  /// The protocol engine whose output the shard pumps to the socket.
  virtual http2::Connection& connection() = 0;
  /// Called once right after accept (start the handshake here).
  virtual void OnConnected() = 0;
  /// Called after bytes were fed to the connection; process protocol
  /// events and queue responses.  A returned error closes the connection
  /// (after flushing whatever was queued, e.g. a GOAWAY).
  virtual util::Status OnEvents() = 0;
};

/// Makes the app for a freshly-accepted connection (on the shard thread).
/// Returning nullptr refuses the connection — the socket is dropped.
using ReactorAppFactory = std::function<std::unique_ptr<ReactorApp>()>;

class ReactorServer {
 public:
  /// The most shards Start accepts; each is one thread and one epoll set.
  static constexpr int kMaxShards = 64;

  struct Options {
    /// Port to listen on (0 picks a free port; all shards share it).
    std::uint16_t port = 0;
    /// Accept shards (reactors), one thread each.  <= 0 sizes to
    /// hardware_concurrency, capped at 8; above kMaxShards, Start fails.
    int shards = 0;
    /// Close connections with no inbound traffic for this long.  0
    /// disables.  Lazy: one wheel timer per connection, re-armed against
    /// the last-activity stamp when it fires early.
    std::uint64_t idle_timeout_ms = 60'000;
    /// Close connections whose peer never acknowledges our SETTINGS.  0
    /// disables.
    std::uint64_t settings_ack_timeout_ms = 10'000;
    /// Graceful Shutdown(): after SendGoaway, wait this long for peers
    /// to finish before force-closing stragglers.
    std::uint64_t goaway_drain_ms = 1'000;
    /// Per-connection WriteQueue bound (stop-reading threshold).
    std::size_t max_backlog_bytes = 1 << 20;
    /// Observer invoked on the shard thread just before a connection's
    /// app is destroyed (any cause: peer close, timeout, error, drain).
    std::function<void(ReactorApp&)> on_close;
  };

  struct ShardStats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t active = 0;
  };

  /// Bind all shards and start their event loops, one thread per shard.
  /// The server is live (kernel accepting) when this returns.  A shard
  /// count above kMaxShards is kInvalidArgument, before anything binds.
  static util::Result<std::unique_ptr<ReactorServer>> Start(
      ReactorAppFactory factory, Options options);

  /// Graceful stop: every shard sends GOAWAY on its connections, waits up
  /// to goaway_drain_ms, force-closes stragglers, and its loop exits;
  /// then the shard threads are joined.  Idempotent; the destructor calls
  /// it.
  void Shutdown();

  ~ReactorServer();
  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  std::uint16_t port() const { return port_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  std::uint64_t total_accepted() const;
  std::uint64_t total_closed() const;
  std::vector<ShardStats> ShardStatsSnapshot() const;

 private:
  struct Connection;  // one accepted socket + app + writer + timers
  struct Shard;

  ReactorServer() = default;

  static void RunShard(Shard& shard);
  static void HandleAccept(Shard& shard);
  static void HandleConnEvent(Shard& shard, int fd, std::uint32_t events);
  static void DrainReadable(Shard& shard, Connection& conn);
  static void FlushOutput(Shard& shard, Connection& conn);
  static void ArmIdleTimer(Shard& shard, Connection& conn);
  static void CloseConnection(Shard& shard, int fd);
  static void BeginShutdown(Shard& shard);
  static void FinishShutdownIfDrained(Shard& shard);

  ReactorAppFactory factory_;
  Options options_;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> shard_threads_;
  std::atomic<bool> shutdown_called_{false};
};

}  // namespace sww::net
