// Tests for the epoll reactor transport: timer wheel, reactor loop,
// scatter-gather write queue, tcp options/deadlines, and the sharded
// reactor server end-to-end over real loopback sockets.
#include <gtest/gtest.h>

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/page_builder.hpp"
#include "core/reactor_host.hpp"
#include "core/session.hpp"
#include "http2/connection.hpp"
#include "net/pump.hpp"
#include "net/reactor.hpp"
#include "net/reactor_server.hpp"
#include "net/tcp.hpp"
#include "net/timer_wheel.hpp"
#include "net/write_queue.hpp"
#include "obs/registry.hpp"
#include "oracles/net.hpp"
#include "util/bytes.hpp"

namespace sww::net {
namespace {

using util::Bytes;
using util::BytesView;

constexpr std::uint64_t kMs = 1'000'000;  // nanos per millisecond

// ---------------------------------------------------------------- wheel

TEST(TimerWheel, FiresAtDeadlineNotBefore) {
  TimerWheel wheel;
  int fired = 0;
  wheel.Schedule(5 * kMs, [&] { ++fired; });
  EXPECT_EQ(wheel.Advance(4 * kMs), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.Advance(5 * kMs), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.armed_count(), 0u);
}

TEST(TimerWheel, ZeroDelayFiresOnNextTick) {
  TimerWheel wheel;
  bool fired = false;
  wheel.Schedule(0, [&] { fired = true; });
  wheel.Advance(1 * kMs);
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel;
  bool fired = false;
  const auto id = wheel.Schedule(3 * kMs, [&] { fired = true; });
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));  // second cancel is a no-op
  wheel.Advance(10 * kMs);
  EXPECT_FALSE(fired);
  EXPECT_EQ(wheel.armed_count(), 0u);
}

TEST(TimerWheel, CallbackCancelsSiblingInSameDueChain) {
  TimerWheel wheel;
  // Two timers due on the same tick, each cancelling the other: whichever
  // fires first leaves a cancelled sibling sitting in Advance()'s detached
  // due-chain.  That entry must be disarmed in place, not released twice.
  int fired = 0;
  TimerWheel::TimerId a = TimerWheel::kInvalidTimer;
  TimerWheel::TimerId b = TimerWheel::kInvalidTimer;
  a = wheel.Schedule(2 * kMs, [&] {
    ++fired;
    EXPECT_TRUE(wheel.Cancel(b));
  });
  b = wheel.Schedule(2 * kMs, [&] {
    ++fired;
    EXPECT_TRUE(wheel.Cancel(a));
  });
  EXPECT_EQ(wheel.Advance(5 * kMs), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.armed_count(), 0u);  // double decrement would underflow
  // Pool integrity: the cancelled entry went back to the free list exactly
  // once, so two fresh timers get distinct entries and both fire.
  int c_fired = 0;
  int d_fired = 0;
  const auto c = wheel.Schedule(1 * kMs, [&] { ++c_fired; });
  const auto d = wheel.Schedule(1 * kMs, [&] { ++d_fired; });
  EXPECT_NE(c, d);
  EXPECT_EQ(wheel.Advance(10 * kMs), 2u);
  EXPECT_EQ(c_fired, 1);
  EXPECT_EQ(d_fired, 1);
  EXPECT_EQ(wheel.armed_count(), 0u);
}

TEST(TimerWheel, CancelSiblingThenScheduleDoesNotAliasChainEntry) {
  TimerWheel wheel;
  // The firing callback cancels a chain sibling and immediately schedules
  // a new timer: the new timer must not be handed the sibling's pool entry
  // (still reachable via the due-chain) or its callback would be clobbered.
  bool victim_fired = false;
  bool replacement_fired = false;
  TimerWheel::TimerId victim = TimerWheel::kInvalidTimer;
  victim = wheel.Schedule(2 * kMs, [&] { victim_fired = true; });
  wheel.Schedule(2 * kMs, [&] {
    EXPECT_TRUE(wheel.Cancel(victim));
    wheel.Schedule(1 * kMs, [&] { replacement_fired = true; });
  });
  wheel.Advance(10 * kMs);
  EXPECT_FALSE(victim_fired);
  EXPECT_TRUE(replacement_fired);
  EXPECT_EQ(wheel.armed_count(), 0u);
}

TEST(TimerWheel, ManyTimersFireInDeadlineOrder) {
  TimerWheel wheel;
  std::vector<int> order;
  wheel.Schedule(30 * kMs, [&] { order.push_back(30); });
  wheel.Schedule(10 * kMs, [&] { order.push_back(10); });
  wheel.Schedule(20 * kMs, [&] { order.push_back(20); });
  wheel.Advance(100 * kMs);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[1], 20);
  EXPECT_EQ(order[2], 30);
}

TEST(TimerWheel, CascadesAcrossLevelBoundaries) {
  TimerWheel wheel;
  // 300 ticks lands in level 1 (level 0 spans 256); 70000 in level 2.
  bool mid_fired = false;
  bool far_fired = false;
  wheel.Schedule(300 * kMs, [&] { mid_fired = true; });
  wheel.Schedule(70'000 * kMs, [&] { far_fired = true; });
  wheel.Advance(299 * kMs);
  EXPECT_FALSE(mid_fired);
  wheel.Advance(300 * kMs);
  EXPECT_TRUE(mid_fired);
  EXPECT_FALSE(far_fired);
  wheel.Advance(69'999 * kMs);
  EXPECT_FALSE(far_fired);
  wheel.Advance(70'000 * kMs);
  EXPECT_TRUE(far_fired);
}

TEST(TimerWheel, ScheduleInsideCallbackFiresOnLaterTick) {
  TimerWheel wheel;
  int chained = 0;
  wheel.Schedule(1 * kMs, [&] {
    ++chained;
    wheel.Schedule(1 * kMs, [&] { ++chained; });
  });
  wheel.Advance(10 * kMs);
  EXPECT_EQ(chained, 2);
}

TEST(TimerWheel, NextDeadlineIsConservativeLowerBound) {
  TimerWheel wheel;
  EXPECT_FALSE(wheel.NextDeadlineDelayNanos().has_value());
  wheel.Schedule(5 * kMs, [] {});
  auto delay = wheel.NextDeadlineDelayNanos();
  ASSERT_TRUE(delay.has_value());
  EXPECT_GT(*delay, 0u);
  EXPECT_LE(*delay, 5 * kMs);
  wheel.Advance(10 * kMs);
  EXPECT_FALSE(wheel.NextDeadlineDelayNanos().has_value());
  // A far timer reports at most the next cascade boundary — never later
  // than its true deadline.
  wheel.Schedule(10'000 * kMs, [] {});
  delay = wheel.NextDeadlineDelayNanos();
  ASSERT_TRUE(delay.has_value());
  EXPECT_LE(*delay, 10'000 * kMs);
}

TEST(TimerWheel, AdvanceWithNothingArmedJumpsDirectly) {
  TimerWheel wheel;
  // A huge jump with no timers must not iterate tick-by-tick (this would
  // time out the test if it did).
  EXPECT_EQ(wheel.Advance(3'600'000 * kMs), 0u);
  bool fired = false;
  wheel.Schedule(2 * kMs, [&] { fired = true; });
  wheel.Advance(3'600'010 * kMs);
  EXPECT_TRUE(fired);
}

// -------------------------------------------------------------- reactor

TEST(Reactor, DispatchesReadEvents) {
  Reactor reactor;
  ASSERT_TRUE(reactor.ok());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  std::string received;
  ASSERT_TRUE(reactor
                  .Register(fds[0], EPOLLIN,
                            [&](std::uint32_t) {
                              char buffer[64];
                              const ssize_t n =
                                  ::read(fds[0], buffer, sizeof(buffer));
                              if (n > 0) received.assign(buffer, buffer + n);
                            })
                  .ok());
  ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  for (int i = 0; i < 100 && received.empty(); ++i) reactor.PollOnce(10);
  EXPECT_EQ(received, "ping");
  EXPECT_TRUE(reactor.Deregister(fds[0]).ok());
  EXPECT_FALSE(reactor.Deregister(fds[0]).ok());  // second is kNotFound
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, TimersFireThroughPollOnce) {
  Reactor reactor;
  ASSERT_TRUE(reactor.ok());
  bool fired = false;
  reactor.ScheduleTimer(5 * kMs, [&] { fired = true; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!fired && std::chrono::steady_clock::now() < deadline) {
    reactor.PollOnce(50);
  }
  EXPECT_TRUE(fired);
}

TEST(Reactor, PostRunsOnLoopAndStopEndsRun) {
  Reactor reactor;
  ASSERT_TRUE(reactor.ok());
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    reactor.Post([&] { ran = true; });
    reactor.Stop();
  });
  reactor.Run();  // returns after Stop
  poster.join();
  EXPECT_TRUE(ran);
}

// --------------------------------------------------------- write queue

// A client connection with pending handshake output is a convenient
// source of real frame bytes for the writer.
std::unique_ptr<http2::Connection> ConnectionWithOutput() {
  auto connection = std::make_unique<http2::Connection>(
      http2::Connection::Role::kClient, http2::Connection::Options{});
  connection->StartHandshake();
  return connection;
}

TEST(WriteQueue, ShortWritesPreserveByteOrder) {
  auto connection = ConnectionWithOutput();
  const Bytes expected(connection->OutputView().begin(),
                       connection->OutputView().end());
  Bytes written;
  WriteQueue::Options options;
  // Kernel takes at most 10 bytes per call: every flush is a short write.
  options.writev_fn = [&](int, const struct iovec* iov, int n) -> long {
    std::size_t budget = 10;
    long taken = 0;
    for (int i = 0; i < n && budget > 0; ++i) {
      const std::size_t take = std::min(budget, iov[i].iov_len);
      const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
      written.insert(written.end(), base, base + take);
      budget -= take;
      taken += static_cast<long>(take);
    }
    return taken;
  };
  WriteQueue queue(std::move(options));
  ASSERT_TRUE(queue.Flush(-1, *connection).ok());
  EXPECT_FALSE(connection->HasOutput());  // arena always reclaimed
  // Drain: each flush is another EPOLLOUT edge.
  for (int i = 0; i < 1000 && !queue.empty(); ++i) {
    ASSERT_TRUE(queue.Flush(-1, *connection).ok());
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(written, expected);
}

TEST(WriteQueue, EagainStagesEverythingAndResumesInOrder) {
  auto connection = ConnectionWithOutput();
  const Bytes first(connection->OutputView().begin(),
                    connection->OutputView().end());
  Bytes written;
  bool allow = false;
  WriteQueue::Options options;
  options.writev_fn = [&](int, const struct iovec* iov, int n) -> long {
    if (!allow) {
      errno = EAGAIN;
      return -1;
    }
    long taken = 0;
    for (int i = 0; i < n; ++i) {
      const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
      written.insert(written.end(), base, base + iov[i].iov_len);
      taken += static_cast<long>(iov[i].iov_len);
    }
    return taken;
  };
  WriteQueue queue(std::move(options));
  ASSERT_TRUE(queue.Flush(-1, *connection).ok());
  EXPECT_TRUE(queue.blocked());
  EXPECT_EQ(queue.backlog_bytes(), first.size());
  EXPECT_FALSE(connection->HasOutput());
  // New output produced while blocked must come out *after* the staged
  // residue once the socket opens up.
  connection->SendPing(0x1234);
  const Bytes fresh(connection->OutputView().begin(),
                    connection->OutputView().end());
  allow = true;
  ASSERT_TRUE(queue.Flush(-1, *connection).ok());
  EXPECT_FALSE(queue.blocked());
  EXPECT_TRUE(queue.empty());
  Bytes expected = first;
  expected.insert(expected.end(), fresh.begin(), fresh.end());
  EXPECT_EQ(written, expected);
}

TEST(WriteQueue, BackpressureThresholdsAndGauge) {
  obs::Gauge& gauge =
      obs::Registry::Default().GetGauge("net.reactor.backlog_bytes");
  const double gauge_before = gauge.value();
  auto connection = ConnectionWithOutput();
  WriteQueue::Options options;
  options.max_backlog_bytes = 48;
  options.low_watermark_bytes = 16;
  bool allow = false;
  options.writev_fn = [&](int, const struct iovec* iov, int n) -> long {
    if (!allow) {
      errno = EAGAIN;
      return -1;
    }
    long taken = 0;
    for (int i = 0; i < n; ++i) taken += static_cast<long>(iov[i].iov_len);
    return taken;
  };
  WriteQueue queue(std::move(options));
  // Stall the "kernel" until the staged backlog crosses the limit.
  for (int i = 0; i < 100 && !queue.over_limit(); ++i) {
    connection->SendPing(static_cast<std::uint64_t>(i));
    ASSERT_TRUE(queue.Flush(-1, *connection).ok());
  }
  EXPECT_TRUE(queue.over_limit());
  EXPECT_FALSE(queue.below_low_watermark());
  // The global gauge tracks this queue's staged residue exactly.
  EXPECT_DOUBLE_EQ(gauge.value() - gauge_before,
                   static_cast<double>(queue.backlog_bytes()));
  allow = true;
  ASSERT_TRUE(queue.Flush(-1, *connection).ok());
  EXPECT_TRUE(queue.below_low_watermark());
  EXPECT_TRUE(queue.empty());
  EXPECT_DOUBLE_EQ(gauge.value(), gauge_before);
}

TEST(WriteQueue, SteadyStateStagesWithoutAllocating) {
  auto connection = ConnectionWithOutput();
  bool allow = false;
  WriteQueue::Options options;
  options.writev_fn = [&](int, const struct iovec* iov, int n) -> long {
    if (!allow) {
      errno = EAGAIN;
      return -1;
    }
    long taken = 0;
    for (int i = 0; i < n; ++i) taken += static_cast<long>(iov[i].iov_len);
    return taken;
  };
  WriteQueue queue(std::move(options));
  auto stall_then_drain = [&] {
    connection->SendPing(7);
    allow = false;
    ASSERT_TRUE(queue.Flush(-1, *connection).ok());  // stages the ping
    allow = true;
    ASSERT_TRUE(queue.Flush(-1, *connection).ok());  // drains it
  };
  // Warm-up: the stage grows to its high-water mark.
  stall_then_drain();
  ASSERT_TRUE(queue.Flush(-1, *connection).ok());  // flush handshake bytes
  const std::uint64_t warm = queue.allocations();
  for (int i = 0; i < 64; ++i) stall_then_drain();
  EXPECT_EQ(queue.allocations(), warm) << "steady-state staging allocated";
}

// ------------------------------------------------- pump under a stall

// Transport whose Write always fails (a reader stalled past its socket
// buffer surfaces exactly like this to pump callers).
class StalledTransport final : public Transport {
 public:
  util::Status Write(BytesView) override {
    return util::Error(util::ErrorCode::kIo, "send timed out: simulated");
  }
  util::Result<Bytes> Read() override { return Bytes{}; }
  void Close() override { closed_ = true; }
  bool closed() const override { return closed_; }

 private:
  bool closed_ = false;
};

TEST(Pump, BacklogGaugeHoldsQueueDepthUnderStalledReader) {
  obs::Gauge& gauge =
      obs::Registry::Default().GetGauge("net.pump.backlog_bytes");
  gauge.Set(0.0);
  auto connection = ConnectionWithOutput();
  const std::size_t queued = connection->OutputView().size();
  ASSERT_GT(queued, 0u);
  StalledTransport stalled;
  auto result = PumpOnce(*connection, stalled);
  EXPECT_FALSE(result.ok());
  // The gauge reports the bytes still parked in the arena — live scrapes
  // see the stall as a standing backlog, not a zero.
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(queued));
  EXPECT_TRUE(connection->HasOutput());
  // Once the reader unblocks, one pump drains and the gauge drops to 0.
  TransportPair pair = MakeInMemoryPair();
  ASSERT_TRUE(PumpOnce(*connection, *pair.first).ok());
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

// ------------------------------------------------------- tcp options

TEST(TcpOptions, RoundTripThroughKernel) {
  TcpListener::Options options;
  options.reuse_port = true;
  options.tuning.tcp_nodelay = true;
  options.tuning.recv_buffer_bytes = 64 * 1024;
  options.tuning.send_buffer_bytes = 64 * 1024;
  auto listener = TcpListener::Bind(0, options);
  ASSERT_TRUE(listener.ok());
  EXPECT_EQ(listener.value()->options().tuning.recv_buffer_bytes, 64 * 1024);
  // Every listener is non-blocking: AcceptFd drains to EAGAIN.
  EXPECT_NE(::fcntl(listener.value()->fd(), F_GETFL) & O_NONBLOCK, 0);

  int value = 0;
  socklen_t len = sizeof(value);
  ASSERT_EQ(::getsockopt(listener.value()->fd(), SOL_SOCKET, SO_REUSEPORT,
                         &value, &len),
            0);
  EXPECT_EQ(value, 1);

  // A second listener on the same port succeeds because of REUSEPORT.
  auto sibling = TcpListener::Bind(listener.value()->port(), options);
  ASSERT_TRUE(sibling.ok());

  auto client = TcpConnect(listener.value()->port());
  ASSERT_TRUE(client.ok());
  int accepted = -1;
  for (int i = 0; i < 200 && accepted < 0; ++i) {
    for (auto* l : {listener.value().get(), sibling.value().get()}) {
      auto fd = l->AcceptFd();
      ASSERT_TRUE(fd.ok());
      if (fd.value() >= 0) {
        accepted = fd.value();
        break;
      }
    }
    if (accepted < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(accepted, 0);

  // The accepted socket carries the tuning: NODELAY on, buffers at least
  // what we hinted (Linux doubles the request for bookkeeping).
  len = sizeof(value);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  EXPECT_EQ(value, 1);
  len = sizeof(value);
  ASSERT_EQ(::getsockopt(accepted, SOL_SOCKET, SO_RCVBUF, &value, &len), 0);
  EXPECT_GE(value, 64 * 1024);
  len = sizeof(value);
  ASSERT_EQ(::getsockopt(accepted, SOL_SOCKET, SO_SNDBUF, &value, &len), 0);
  EXPECT_GE(value, 64 * 1024);
  ::close(accepted);
}

TEST(TcpConnectDeadline, RefusedPortSurfacesError) {
  // Bind-then-close guarantees an unused port with nothing listening.
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t dead_port = listener.value()->port();
  listener.value().reset();
  auto result = TcpConnect(dead_port, 1000);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("refused"), std::string::npos)
      << result.error().message;
}

TEST(TcpWriteDeadline, StalledReaderSurfacesTimeout) {
  TcpListener::Options options;
  options.tuning.recv_buffer_bytes = 4096;
  auto listener = TcpListener::Bind(0, options);
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnect(listener.value()->port());
  ASSERT_TRUE(client.ok());
  auto* tcp = static_cast<TcpTransport*>(client.value().get());
  // Shrink our send buffer too so the pipe fills fast.
  const SocketTuning tuning{true, 0, 4096};
  ASSERT_TRUE(ApplySocketTuning(tcp->fd(), tuning).ok());
  tcp->set_write_timeout_ms(50);
  // Accept but never read: the peer's buffers fill and Write must give
  // up at the deadline instead of spinning forever.
  auto server_side = oracles::AcceptWithin(*listener.value(), 2000);
  ASSERT_TRUE(server_side.ok());
  const Bytes chunk(256 * 1024, 0xab);
  util::Status status = util::Status::Ok();
  for (int i = 0; i < 64 && status.ok(); ++i) status = tcp->Write(chunk);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("timed out"), std::string::npos)
      << status.error().message;
}

// ------------------------------------------------------ reactor server

core::ContentStore& GoldfishStore() {
  static core::ContentStore* store = [] {
    auto* s = new core::ContentStore();
    EXPECT_TRUE(s->AddPage("/", core::MakeGoldfishPage()).ok());
    return s;
  }();
  return *store;
}

TEST(ReactorServer, ServesPagesAcrossShards) {
  core::ReactorHost::Options options;
  options.server.shards = 2;
  auto host = core::ReactorHost::Start(&GoldfishStore(), std::move(options));
  ASSERT_TRUE(host.ok());
  for (int i = 0; i < 6; ++i) {
    auto session = core::LoopbackSession::Connect(host.value()->port());
    ASSERT_TRUE(session.ok());
    auto fetch = session.value()->FetchPage("/");
    ASSERT_TRUE(fetch.ok()) << fetch.error().ToString();
    EXPECT_FALSE(fetch.value().final_html.empty());
    session.value()->Close();
  }
  host.value()->Shutdown();
  EXPECT_EQ(host.value()->server().total_accepted(), 6u);
  EXPECT_EQ(host.value()->server().total_closed(), 6u);
}

TEST(ReactorServer, ConcurrentClientsOneShard) {
  core::ReactorHost::Options options;
  options.server.shards = 1;
  auto host = core::ReactorHost::Start(&GoldfishStore(), std::move(options));
  ASSERT_TRUE(host.ok());
  constexpr int kClients = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      auto session = core::LoopbackSession::Connect(host.value()->port());
      if (!session.ok()) return;
      auto fetch = session.value()->FetchPage("/");
      if (fetch.ok()) ok_count.fetch_add(1);
      session.value()->Close();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients);
  host.value()->Shutdown();
}

TEST(ReactorServer, IdleConnectionsAreReaped) {
  core::ReactorHost::Options options;
  options.server.shards = 1;
  options.server.idle_timeout_ms = 50;
  auto host = core::ReactorHost::Start(&GoldfishStore(), std::move(options));
  ASSERT_TRUE(host.ok());
  auto client = TcpConnect(host.value()->port());
  ASSERT_TRUE(client.ok());
  // Never speak: the server's idle timer must close us.
  bool closed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    auto data = client.value()->Read();
    if (!data.ok()) {
      closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(closed);
  host.value()->Shutdown();
}

TEST(ReactorServer, GracefulShutdownSendsGoaway) {
  core::ReactorHost::Options options;
  options.server.shards = 1;
  auto host = core::ReactorHost::Start(&GoldfishStore(), std::move(options));
  ASSERT_TRUE(host.ok());
  auto session = core::LoopbackSession::Connect(host.value()->port());
  ASSERT_TRUE(session.ok());
  std::thread shutdown_thread([&] { host.value()->Shutdown(); });
  // Pump until the GOAWAY lands client-side.
  bool goaway = false;
  auto pump = session.value()->Pump();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!goaway && std::chrono::steady_clock::now() < deadline) {
    (void)pump();
    for (const auto& event : session.value()->client().connection().TakeEvents()) {
      if (event.type == http2::Connection::Event::Type::kGoawayReceived) {
        goaway = true;
      }
    }
    if (session.value()->client().connection().going_away()) goaway = true;
  }
  session.value()->Close();
  shutdown_thread.join();
  EXPECT_TRUE(goaway);
}

TEST(ReactorServer, ShutdownWithResetPeersStaysSafe) {
  core::ReactorHost::Options options;
  options.server.shards = 1;
  auto host = core::ReactorHost::Start(&GoldfishStore(), std::move(options));
  ASSERT_TRUE(host.ok());
  // Connect several raw clients, then RST them all (SO_LINGER 0) right
  // before Shutdown: BeginShutdown's GOAWAY flush hits dead sockets and
  // closes connections mid-walk, which must not upset its iteration.
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<Transport>> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    auto client = TcpConnect(host.value()->port());
    ASSERT_TRUE(client.ok()) << client.error().ToString();
    clients.push_back(std::move(client).value());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (host.value()->server().total_accepted() <
             static_cast<std::uint64_t>(kClients) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& client : clients) {
    auto* tcp = static_cast<TcpTransport*>(client.get());
    struct linger hard_reset{1, 0};
    ASSERT_EQ(::setsockopt(tcp->fd(), SOL_SOCKET, SO_LINGER, &hard_reset,
                           sizeof(hard_reset)),
              0);
  }
  clients.clear();  // close → RST on every connection
  host.value()->Shutdown();
  EXPECT_EQ(host.value()->server().total_closed(),
            host.value()->server().total_accepted());
}

TEST(ReactorServer, HoldsManyIdleConnections) {
  core::ReactorHost::Options options;
  options.server.shards = 2;
  options.server.idle_timeout_ms = 0;  // never reap during the test
  auto host = core::ReactorHost::Start(&GoldfishStore(), std::move(options));
  ASSERT_TRUE(host.ok());
  constexpr int kConnections = 128;
  std::vector<std::unique_ptr<Transport>> held;
  held.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    auto client = TcpConnect(host.value()->port());
    ASSERT_TRUE(client.ok()) << i << ": " << client.error().ToString();
    held.push_back(std::move(client).value());
  }
  // All accepted across the shards.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (host.value()->server().total_accepted() <
             static_cast<std::uint64_t>(kConnections) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(host.value()->server().total_accepted(),
            static_cast<std::uint64_t>(kConnections));
  held.clear();
  host.value()->Shutdown();
}

/// The `Threads:` line of /proc/self/status.
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

int OpenFdCount() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

ReactorAppFactory RefuseEveryConnection() {
  return [] { return std::unique_ptr<ReactorApp>(); };
}

TEST(ReactorServer, OverCapShardCountFailsAndStartsNothing) {
  const int threads_before = ProcessThreadCount();
  const int fds_before = OpenFdCount();
  ReactorServer::Options options;
  options.shards = ReactorServer::kMaxShards + 1;
  auto server = ReactorServer::Start(RefuseEveryConnection(), options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ProcessThreadCount(), threads_before);
  EXPECT_EQ(OpenFdCount(), fds_before) << "no listener or epoll set stays open";
}

TEST(ReactorServer, RepeatedStartAndShutdownLeavesNoThreads) {
  auto start_and_shut_down = [] {
    ReactorServer::Options options;
    options.shards = 2;
    auto server = ReactorServer::Start(RefuseEveryConnection(), options);
    ASSERT_TRUE(server.ok()) << server.error().ToString();
    EXPECT_EQ(server.value()->shard_count(), 2);
    server.value()->Shutdown();
  };
  // One cycle first: a sanitizer runtime starts a helper thread of its own
  // when the process makes its first thread.
  start_and_shut_down();
  const int threads_before = ProcessThreadCount();
  ASSERT_GT(threads_before, 0);
  for (int i = 0; i < 20; ++i) start_and_shut_down();
  EXPECT_EQ(ProcessThreadCount(), threads_before);
}

}  // namespace
}  // namespace sww::net
