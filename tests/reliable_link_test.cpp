// Tests for the lossy-datagram reliable transport (§3.1's HTTP/3
// direction): correctness under loss/reordering/duplication, and the full
// SWW negotiation + page delivery running over it.
#include <gtest/gtest.h>

#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "net/pump.hpp"
#include "net/reliable_link.hpp"
#include "oracles/http2.hpp"

namespace sww::net {
namespace {

using util::Bytes;
using util::ToBytes;
using util::ToString;

/// Drive both endpoints' virtual clocks until `done` or a tick budget.
template <typename DoneFn>
bool TickUntil(ReliablePair& pair, DoneFn done, int max_ticks = 2000) {
  for (int tick = 0; tick < max_ticks; ++tick) {
    pair.first->Tick();
    pair.second->Tick();
    if (done()) return true;
  }
  return done();
}

std::string ReadAll(ReliableLink& link, std::size_t expected) {
  std::string out;
  while (out.size() < expected) {
    auto chunk = link.Read();
    if (!chunk.ok() || chunk.value().empty()) break;
    out += ToString(chunk.value());
  }
  return out;
}

TEST(LossyChannel, LosslessProfileDeliversEverything) {
  LossyChannel channel({0.0, 0.0, 0.0, 1});
  channel.Send(ToBytes("a"));
  channel.Send(ToBytes("b"));
  auto delivered = channel.Deliver();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(ToString(delivered[0]), "a");
  EXPECT_EQ(channel.dropped(), 0u);
}

TEST(LossyChannel, LossRateDropsApproximately) {
  LossyChannel channel({0.3, 0.0, 0.0, 42});
  for (int i = 0; i < 2000; ++i) channel.Send(Bytes{1});
  EXPECT_NEAR(static_cast<double>(channel.dropped()) / 2000.0, 0.3, 0.05);
}

TEST(LossyChannel, ReorderedDatagramsArriveNextRound) {
  LossyChannel channel({0.0, 0.0, 1.0, 7});  // everything delayed one slot
  channel.Send(ToBytes("x"));
  EXPECT_TRUE(channel.Deliver().empty());
  auto second = channel.Deliver();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(ToString(second[0]), "x");
}

TEST(ReliableLink, CleanChannelPassesBytesInOrder) {
  ReliablePair pair = MakeReliablePair({0.0, 0.0, 0.0, 1});
  ASSERT_TRUE(pair.first->Write(ToBytes("hello reliable world")).ok());
  std::string received;
  TickUntil(pair, [&] {
    received += ReadAll(*pair.second, 20 - received.size());
    return received.size() == 20;
  });
  EXPECT_EQ(received, "hello reliable world");
  EXPECT_EQ(pair.first->stats().retransmissions, 0u);
}

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, BulkTransferSurvivesLoss) {
  LossyChannel::Profile profile;
  profile.loss_rate = GetParam();
  profile.duplicate_rate = 0.05;
  profile.reorder_rate = 0.15;
  profile.seed = 99;
  ReliablePair pair = MakeReliablePair(profile);

  // 200 kB of patterned data — hundreds of segments.
  Bytes payload(200000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + (i >> 9));
  }
  ASSERT_TRUE(pair.first->Write(payload).ok());
  Bytes received;
  const bool complete = TickUntil(pair, [&] {
    auto chunk = pair.second->Read();
    if (chunk.ok()) {
      received.insert(received.end(), chunk.value().begin(), chunk.value().end());
    }
    return received.size() >= payload.size();
  }, 20000);
  ASSERT_TRUE(complete) << "received only " << received.size();
  EXPECT_EQ(received, payload);
  if (GetParam() > 0.0) {
    EXPECT_GT(pair.first->stats().retransmissions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep,
                         ::testing::Values(0.0, 0.05, 0.2, 0.4));

TEST(ReliableLink, BidirectionalTraffic) {
  ReliablePair pair = MakeReliablePair({0.1, 0.0, 0.1, 5});
  ASSERT_TRUE(pair.first->Write(ToBytes("ping from first")).ok());
  ASSERT_TRUE(pair.second->Write(ToBytes("pong from second")).ok());
  std::string at_second, at_first;
  TickUntil(pair, [&] {
    auto a = pair.second->Read();
    if (a.ok()) at_second += ToString(a.value());
    auto b = pair.first->Read();
    if (b.ok()) at_first += ToString(b.value());
    return at_second.size() >= 15 && at_first.size() >= 16;
  });
  EXPECT_EQ(at_second, "ping from first");
  EXPECT_EQ(at_first, "pong from second");
}

TEST(ReliableLink, ClosedLinkRefusesWrites) {
  ReliablePair pair = MakeReliablePair({0.0, 0.0, 0.0, 1});
  pair.first->Close();
  EXPECT_FALSE(pair.first->Write(ToBytes("x")).ok());
  EXPECT_TRUE(pair.first->closed());
}

TEST(ReliableLink, NegotiationSurvivesLossyNetwork) {
  // The paper's §3.1 claim, demonstrated: SETTINGS_GEN_ABILITY negotiation
  // and a full generative page fetch complete over a 20%-loss datagram
  // network — the reliability layer (QUIC's job under HTTP/3) makes the
  // SETTINGS-based design carry over.
  LossyChannel::Profile profile;
  profile.loss_rate = 0.2;
  profile.reorder_rate = 0.1;
  profile.seed = 1234;
  ReliablePair pair = MakeReliablePair(profile);

  core::ContentStore store;
  ASSERT_TRUE(store.AddPage("/", core::MakeGoldfishPage()).ok());
  auto server = core::GenerativeServer::Create(&store, {});
  ASSERT_TRUE(server.ok());
  auto client = core::GenerativeClient::Create({});
  ASSERT_TRUE(client.ok());
  server.value()->StartHandshake();
  client.value()->StartHandshake();

  auto pump = [&]() -> util::Status {
    // Move connection bytes into the links, tick the links, feed back.
    if (client.value()->connection().HasOutput()) {
      if (auto s = pair.first->Write(
              oracles::TakeOutput(client.value()->connection()));
          !s.ok()) {
        return s;
      }
    }
    if (server.value()->connection().HasOutput()) {
      if (auto s = pair.second->Write(
              oracles::TakeOutput(server.value()->connection()));
          !s.ok()) {
        return s;
      }
    }
    pair.first->Tick();
    pair.second->Tick();
    if (auto incoming = pair.second->Read();
        incoming.ok() && !incoming.value().empty()) {
      if (auto s = server.value()->connection().Receive(incoming.value());
          !s.ok()) {
        return s;
      }
    }
    if (auto s = server.value()->ProcessEvents(); !s.ok()) return s;
    if (auto incoming = pair.first->Read();
        incoming.ok() && !incoming.value().empty()) {
      if (auto s = client.value()->connection().Receive(incoming.value());
          !s.ok()) {
        return s;
      }
    }
    return util::Status::Ok();
  };

  auto fetch = client.value()->FetchPage("/", pump);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().mode, "generative");
  EXPECT_EQ(fetch.value().generated_items, 1u);
  EXPECT_TRUE(client.value()->NegotiatedGenerative());
  // Loss actually happened and was repaired.
  EXPECT_GT(pair.a_to_b->dropped() + pair.b_to_a->dropped(), 0u);
}

}  // namespace
}  // namespace sww::net
