// Tests for the transport layer: in-memory pair, loopback TCP, pumps.
#include <gtest/gtest.h>

#include <thread>

#include "http2/connection.hpp"
#include "net/pump.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "oracles/net.hpp"
#include "util/bytes.hpp"

namespace sww::net {
namespace {

using util::Bytes;
using util::ToBytes;
using util::ToString;

TEST(InMemoryPair, BytesFlowBothWays) {
  TransportPair pair = MakeInMemoryPair();
  ASSERT_TRUE(pair.first->Write(ToBytes("ping")).ok());
  ASSERT_TRUE(pair.second->Write(ToBytes("pong")).ok());
  EXPECT_EQ(ToString(pair.second->Read().value()), "ping");
  EXPECT_EQ(ToString(pair.first->Read().value()), "pong");
}

TEST(InMemoryPair, EmptyReadWhenNoData) {
  TransportPair pair = MakeInMemoryPair();
  auto result = pair.first->Read();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(InMemoryPair, ReadsAreDrainedOnce) {
  TransportPair pair = MakeInMemoryPair();
  ASSERT_TRUE(pair.first->Write(ToBytes("abc")).ok());
  EXPECT_EQ(pair.second->Read().value().size(), 3u);
  EXPECT_TRUE(pair.second->Read().value().empty());
}

TEST(InMemoryPair, CloseSurfacesAsClosedAfterDrain) {
  TransportPair pair = MakeInMemoryPair();
  ASSERT_TRUE(pair.first->Write(ToBytes("tail")).ok());
  pair.first->Close();
  // Buffered data is still readable...
  EXPECT_EQ(ToString(pair.second->Read().value()), "tail");
  // ...then the close is observed.
  auto after = pair.second->Read();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code, util::ErrorCode::kClosed);
  // Writing into a closed channel fails.
  EXPECT_FALSE(pair.second->Write(ToBytes("x")).ok());
}

TEST(InMemoryPair, ThreadSafeUnderConcurrency) {
  TransportPair pair = MakeInMemoryPair();
  constexpr int kBytes = 100000;
  std::thread writer([&] {
    Bytes chunk(100, 0x5a);
    for (int i = 0; i < kBytes / 100; ++i) {
      ASSERT_TRUE(pair.first->Write(chunk).ok());
    }
    pair.first->Close();
  });
  std::size_t received = 0;
  while (true) {
    auto result = pair.second->Read();
    if (!result.ok()) break;
    received += result.value().size();
  }
  writer.join();
  EXPECT_EQ(received, static_cast<std::size_t>(kBytes));
}

TEST(Tcp, LoopbackRoundTrip) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();
  ASSERT_GT(port, 0);

  std::unique_ptr<Transport> server_side;
  std::thread accepter([&] {
    auto accepted = oracles::AcceptWithin(*listener.value(), 2000);
    ASSERT_TRUE(accepted.ok());
    server_side = std::move(accepted).value();
  });
  auto client_side = TcpConnect(port);
  ASSERT_TRUE(client_side.ok());
  accepter.join();
  ASSERT_NE(server_side, nullptr);

  ASSERT_TRUE(client_side.value()->Write(ToBytes("hello over tcp")).ok());
  // Drain with a small retry loop (kernel delivery is asynchronous).
  std::string received;
  for (int i = 0; i < 100 && received.size() < 14; ++i) {
    auto chunk = server_side->Read();
    ASSERT_TRUE(chunk.ok());
    received += ToString(chunk.value());
    if (received.size() < 14) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received, "hello over tcp");

  ASSERT_TRUE(server_side->Write(ToBytes("ack")).ok());
  std::string reply;
  for (int i = 0; i < 100 && reply.size() < 3; ++i) {
    auto chunk = client_side.value()->Read();
    ASSERT_TRUE(chunk.ok());
    reply += ToString(chunk.value());
    if (reply.size() < 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reply, "ack");
}

TEST(Pump, DrivesHandshakeOverInMemoryTransport) {
  TransportPair pair = MakeInMemoryPair();
  http2::Connection::Options options;
  options.local_settings.set_gen_ability(http2::kGenAbilityFull);
  http2::Connection client(http2::Connection::Role::kClient, options);
  http2::Connection server(http2::Connection::Role::kServer, options);
  client.StartHandshake();
  server.StartHandshake();
  // Each endpoint pumps until a round moves nothing (or 64 rounds).
  auto pump_until_quiet = [](http2::Connection& connection,
                             Transport& transport) {
    for (int round = 0; round < 64; ++round) {
      auto result = PumpOnce(connection, transport);
      ASSERT_TRUE(result.ok());
      if (!result.value().made_progress) return;
    }
  };
  for (int i = 0; i < 8; ++i) {
    pump_until_quiet(client, *pair.first);
    pump_until_quiet(server, *pair.second);
  }
  EXPECT_TRUE(client.generative_mode());
  EXPECT_TRUE(server.generative_mode());
}

TEST(DirectLink, QuiescesWithoutTraffic) {
  http2::Connection client(http2::Connection::Role::kClient, {});
  http2::Connection server(http2::Connection::Role::kServer, {});
  // No handshake started: nothing to exchange, must not loop forever.
  DirectLinkExchange(client, server);
  SUCCEED();
}

}  // namespace
}  // namespace sww::net
