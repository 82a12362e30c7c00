#include "net/reactor_server.hpp"

#include <sys/epoll.h>

#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/registry.hpp"
#include "util/strings.hpp"

namespace sww::net {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

obs::Counter& AcceptsTotal() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.reactor.accepts");
  return counter;
}
obs::Gauge& ConnectionsActive() {
  static obs::Gauge& gauge =
      obs::Registry::Default().GetGauge("net.reactor.connections_active");
  return gauge;
}
/// Shard balance: one observation of (shard index + 1) per accept; the
/// histogram's spread across shards is the kernel's REUSEPORT fairness.
obs::Histogram& AcceptShard() {
  static obs::Histogram& histogram =
      obs::Registry::Default().GetHistogram("net.reactor.accept_shard");
  return histogram;
}
obs::Counter& IdleTimeouts() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.reactor.idle_timeouts");
  return counter;
}
obs::Counter& SettingsTimeouts() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.reactor.settings_timeouts");
  return counter;
}
obs::Counter& ReadPauses() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.reactor.read_pauses");
  return counter;
}
obs::Counter& GoawayDrainCloses() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.reactor.goaway_drain_closes");
  return counter;
}

constexpr std::uint64_t kMillion = 1'000'000;
constexpr std::uint64_t kAcceptRetryMillis = 50;  // fd-exhaustion re-poll cadence

}  // namespace

struct ReactorServer::Connection {
  std::unique_ptr<TcpTransport> transport;  // owns the fd
  std::unique_ptr<ReactorApp> app;
  WriteQueue writer;
  TimerWheel::TimerId idle_timer = TimerWheel::kInvalidTimer;
  TimerWheel::TimerId settings_timer = TimerWheel::kInvalidTimer;
  std::uint64_t last_activity_nanos = 0;  // wheel time of last inbound byte
  bool paused_reads = false;   // backpressure: backlog over the limit
  bool readable_pending = false;  // an ET read edge arrived while paused
  bool hup_pending = false;    // peer half-closed while paused: close on resume

  explicit Connection(WriteQueue::Options writer_options)
      : writer(std::move(writer_options)) {}
};

struct ReactorServer::Shard {
  ReactorServer* server = nullptr;
  int index = 0;
  std::unique_ptr<TcpListener> listener;
  Reactor reactor;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  bool shutting_down = false;
  bool accept_retry_armed = false;  // one fd-exhaustion retry timer at a time
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> active{0};
};

Result<std::unique_ptr<ReactorServer>> ReactorServer::Start(
    ReactorAppFactory factory, Options options) {
  if (!factory) {
    return Error(ErrorCode::kInvalidArgument, "reactor server needs a factory");
  }
  int shard_count = options.shards;
  if (shard_count > kMaxShards) {
    return Error(ErrorCode::kInvalidArgument,
                 util::Format("reactor server: %d shards is over the cap of %d",
                              shard_count, kMaxShards));
  }
  if (shard_count <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    shard_count = static_cast<int>(hw == 0 ? 1 : (hw > 8 ? 8 : hw));
  }
  auto server = std::unique_ptr<ReactorServer>(new ReactorServer());
  server->factory_ = std::move(factory);
  server->options_ = std::move(options);

  TcpListener::Options listener_options;
  listener_options.reuse_port = true;  // all shards share the port

  std::uint16_t port = server->options_.port;
  for (int i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->server = server.get();
    shard->index = i;
    if (!shard->reactor.ok()) return shard->reactor.init_status().error();
    auto listener = TcpListener::Bind(port, listener_options);
    if (!listener.ok()) return listener.error();
    shard->listener = std::move(listener.value());
    if (i == 0) port = shard->listener->port();  // learn the picked port
    server->shards_.push_back(std::move(shard));
  }
  server->port_ = port;

  for (auto& shard : server->shards_) {
    Shard* raw = shard.get();
    server->shard_threads_.emplace_back([raw] { RunShard(*raw); });
  }
  return server;
}

ReactorServer::~ReactorServer() { Shutdown(); }

std::uint64_t ReactorServer::total_accepted() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->accepted.load();
  return total;
}

std::uint64_t ReactorServer::total_closed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->closed.load();
  return total;
}

std::vector<ReactorServer::ShardStats> ReactorServer::ShardStatsSnapshot()
    const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.accepted = shard->accepted.load();
    s.closed = shard->closed.load();
    s.active = shard->active.load();
    stats.push_back(s);
  }
  return stats;
}

void ReactorServer::RunShard(Shard& shard) {
  const int listen_fd = shard.listener->fd();
  (void)shard.reactor.Register(listen_fd, EPOLLIN, [&shard](std::uint32_t) {
    HandleAccept(shard);
  });
  shard.reactor.Run();
  // Loop exited (shutdown): the maps are torn down on this thread so app
  // destructors never race their own callbacks.
  shard.conns.clear();
}

void ReactorServer::HandleAccept(Shard& shard) {
  // Edge-triggered: drain the whole accept queue.
  while (true) {
    if (shard.shutting_down) return;
    auto accepted = shard.listener->AcceptFd();
    if (!accepted.ok()) {
      // Descriptor exhaustion leaves the queue full, and an edge-triggered
      // listener gets no new edge until another SYN arrives — pending
      // peers would sit unaccepted.  Poll again on a timer instead.
      if (accepted.error().code == ErrorCode::kResourceExhausted &&
          !shard.accept_retry_armed) {
        shard.accept_retry_armed = true;
        shard.reactor.ScheduleTimer(kAcceptRetryMillis * kMillion, [&shard] {
          shard.accept_retry_armed = false;
          if (!shard.shutting_down) HandleAccept(shard);
        });
      }
      return;  // other failures: next edge retries
    }
    const int fd = accepted.value();
    if (fd < 0) return;  // queue empty
    auto conn = std::make_unique<Connection>(WriteQueue::Options{
        shard.server->options_.max_backlog_bytes,
        shard.server->options_.max_backlog_bytes / 2,
        nullptr});
    conn->transport = std::make_unique<TcpTransport>(fd);
    conn->app = shard.server->factory_();
    if (conn->app == nullptr) continue;  // factory refused; drop the socket
    conn->last_activity_nanos = shard.reactor.wheel().now_nanos();
    Connection* raw = conn.get();
    shard.conns.emplace(fd, std::move(conn));
    const Status registered = shard.reactor.Register(
        fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP,
        [&shard, fd](std::uint32_t events) {
          HandleConnEvent(shard, fd, events);
        });
    if (!registered.ok()) {
      shard.conns.erase(fd);
      continue;
    }
    shard.accepted.fetch_add(1, std::memory_order_relaxed);
    shard.active.fetch_add(1, std::memory_order_relaxed);
    AcceptsTotal().Add();
    ConnectionsActive().Add(1.0);
    AcceptShard().Observe(static_cast<double>(shard.index + 1));
    raw->app->OnConnected();
    FlushOutput(shard, *raw);
    ArmIdleTimer(shard, *raw);
    const std::uint64_t ack_ms = shard.server->options_.settings_ack_timeout_ms;
    if (ack_ms > 0) {
      raw->settings_timer = shard.reactor.ScheduleTimer(
          ack_ms * kMillion, [&shard, fd] {
            auto it = shard.conns.find(fd);
            if (it == shard.conns.end()) return;
            it->second->settings_timer = TimerWheel::kInvalidTimer;
            if (!it->second->app->connection().local_settings_acked()) {
              SettingsTimeouts().Add();
              CloseConnection(shard, fd);
            }
          });
    }
  }
}

void ReactorServer::ArmIdleTimer(Shard& shard, Connection& conn) {
  const std::uint64_t timeout_ms = shard.server->options_.idle_timeout_ms;
  if (timeout_ms == 0) return;
  const int fd = conn.transport->fd();
  // Lazy re-arm: the timer fires at last_activity + timeout; activity in
  // between just moves the stamp instead of churning the wheel.
  const std::uint64_t now = shard.reactor.wheel().now_nanos();
  const std::uint64_t deadline = conn.last_activity_nanos + timeout_ms * kMillion;
  const std::uint64_t delay = deadline > now ? deadline - now : 1;
  conn.idle_timer = shard.reactor.ScheduleTimer(delay, [&shard, fd] {
    auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) return;
    Connection& c = *it->second;
    c.idle_timer = TimerWheel::kInvalidTimer;
    const std::uint64_t now2 = shard.reactor.wheel().now_nanos();
    const std::uint64_t timeout_nanos =
        shard.server->options_.idle_timeout_ms * kMillion;
    if (now2 - c.last_activity_nanos >= timeout_nanos) {
      IdleTimeouts().Add();
      c.app->connection().SendGoaway(http2::ErrorCode::kNoError, "idle timeout");
      FlushOutput(shard, c);
      CloseConnection(shard, fd);
      return;
    }
    ArmIdleTimer(shard, c);
  });
}

void ReactorServer::FlushOutput(Shard& shard, Connection& conn) {
  const Status status =
      conn.writer.Flush(conn.transport->fd(), conn.app->connection());
  if (!status.ok()) {
    CloseConnection(shard, conn.transport->fd());
    return;
  }
  // Backpressure: a peer that stops reading builds staged backlog; stop
  // reading from it until the kernel drains below the watermark.
  if (!conn.paused_reads && conn.writer.over_limit()) {
    conn.paused_reads = true;
    ReadPauses().Add();
  }
}

void ReactorServer::DrainReadable(Shard& shard, Connection& conn) {
  const int fd = conn.transport->fd();
  auto data = conn.transport->Read();
  if (!data.ok()) {
    // kClosed: orderly FIN from the peer.  Anything else: broken socket.
    CloseConnection(shard, fd);
    return;
  }
  if (!data.value().empty()) {
    conn.last_activity_nanos = shard.reactor.wheel().now_nanos();
    const Status received = conn.app->connection().Receive(
        util::BytesView(data.value().data(), data.value().size()));
    const Status processed = conn.app->OnEvents();
    FlushOutput(shard, conn);
    if (shard.conns.find(fd) == shard.conns.end()) return;  // closed in flush
    if (!received.ok() || !processed.ok() ||
        conn.app->connection().dead()) {
      CloseConnection(shard, fd);
      return;
    }
    if (shard.shutting_down && conn.app->connection().going_away()) {
      // Drain mode: the peer finished its in-flight work when no streams
      // remain.
      if (conn.app->connection().active_stream_count() == 0) {
        CloseConnection(shard, fd);
        FinishShutdownIfDrained(shard);
        return;
      }
    }
  }
}

void ReactorServer::HandleConnEvent(Shard& shard, int fd,
                                    std::uint32_t events) {
  auto it = shard.conns.find(fd);
  if (it == shard.conns.end()) return;
  Connection& conn = *it->second;
  if (events & EPOLLERR) {
    CloseConnection(shard, fd);
    return;
  }
  if (events & EPOLLOUT) {
    FlushOutput(shard, conn);
    if (shard.conns.find(fd) == shard.conns.end()) return;
    if (conn.paused_reads && conn.writer.below_low_watermark()) {
      // Resume: re-run the read path because ET edges consumed while
      // paused never come back on their own.
      conn.paused_reads = false;
      if (conn.readable_pending) {
        conn.readable_pending = false;
        DrainReadable(shard, conn);
        if (shard.conns.find(fd) == shard.conns.end()) return;
        // The peer half-closed while we were backpressured: its final
        // bytes are drained now, and no further read edge will come.
        if (conn.hup_pending) {
          CloseConnection(shard, fd);
          return;
        }
      }
    }
  }
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
    if (conn.paused_reads) {
      conn.readable_pending = true;
      if (events & (EPOLLRDHUP | EPOLLHUP)) conn.hup_pending = true;
    } else {
      DrainReadable(shard, conn);
      if (shard.conns.find(fd) == shard.conns.end()) return;
      // The peer half-closed: any final bytes were just drained and the
      // responses flushed, and no further edges will arrive — close now
      // rather than lingering until the idle timer.
      if (events & (EPOLLRDHUP | EPOLLHUP)) {
        CloseConnection(shard, fd);
      }
    }
  }
}

void ReactorServer::CloseConnection(Shard& shard, int fd) {
  auto it = shard.conns.find(fd);
  if (it == shard.conns.end()) return;
  Connection& conn = *it->second;
  if (conn.idle_timer != TimerWheel::kInvalidTimer) {
    shard.reactor.CancelTimer(conn.idle_timer);
  }
  if (conn.settings_timer != TimerWheel::kInvalidTimer) {
    shard.reactor.CancelTimer(conn.settings_timer);
  }
  (void)shard.reactor.Deregister(fd);
  if (shard.server->options_.on_close) {
    shard.server->options_.on_close(*conn.app);
  }
  shard.conns.erase(it);  // destroys transport (closes fd), writer, app
  shard.closed.fetch_add(1, std::memory_order_relaxed);
  shard.active.fetch_sub(1, std::memory_order_relaxed);
  ConnectionsActive().Add(-1.0);
  if (shard.shutting_down) FinishShutdownIfDrained(shard);
}

void ReactorServer::BeginShutdown(Shard& shard) {
  if (shard.shutting_down) return;
  shard.shutting_down = true;
  (void)shard.reactor.Deregister(shard.listener->fd());
  // Snapshot the fds first: a failed flush (peer already reset) closes the
  // connection, which erases from shard.conns — iterating the map directly
  // while that happens would invalidate the loop.
  std::vector<int> fds;
  fds.reserve(shard.conns.size());
  for (const auto& [fd, conn] : shard.conns) fds.push_back(fd);
  for (int fd : fds) {
    auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) continue;
    it->second->app->connection().SendGoaway(http2::ErrorCode::kNoError,
                                             "server shutdown");
    FlushOutput(shard, *it->second);
  }
  if (shard.conns.empty()) {
    shard.reactor.Stop();
    return;
  }
  const std::uint64_t drain_ms = shard.server->options_.goaway_drain_ms;
  shard.reactor.ScheduleTimer(
      (drain_ms == 0 ? 1 : drain_ms) * kMillion, [&shard] {
        // Force-close stragglers that ignored the GOAWAY.
        while (!shard.conns.empty()) {
          GoawayDrainCloses().Add();
          CloseConnection(shard, shard.conns.begin()->first);
        }
        shard.reactor.Stop();
      });
}

void ReactorServer::FinishShutdownIfDrained(Shard& shard) {
  if (shard.shutting_down && shard.conns.empty()) shard.reactor.Stop();
}

void ReactorServer::Shutdown() {
  if (shutdown_called_.exchange(true)) return;
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->reactor.Post([raw] { BeginShutdown(*raw); });
  }
  for (std::thread& thread : shard_threads_) thread.join();
  shard_threads_.clear();
}

}  // namespace sww::net
