// Tests for the HTTP/2 connection state machine, including the SWW
// negotiation behaviour the paper's §3/§6.2 describe.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "http2/connection.hpp"
#include "net/pump.hpp"
#include "oracles/http2.hpp"
#include "util/bytes.hpp"

namespace sww::http2 {
namespace {

using oracles::MakeDataFrame;
using oracles::SerializeFrame;
using oracles::TakeOutput;
using util::Bytes;
using util::ToBytes;

Connection::Options ClientOptions(std::uint32_t ability = kGenAbilityFull) {
  Connection::Options options;
  options.local_settings.set_gen_ability(ability);
  options.local_settings.set_enable_push(false);
  return options;
}

Connection::Options ServerOptions(std::uint32_t ability = kGenAbilityFull) {
  Connection::Options options;
  options.local_settings.set_gen_ability(ability);
  options.local_settings.set_enable_push(false);
  return options;
}

struct Pair {
  Connection client{Connection::Role::kClient, ClientOptions()};
  Connection server{Connection::Role::kServer, ServerOptions()};

  Pair() = default;
  Pair(std::uint32_t client_ability, std::uint32_t server_ability)
      : client(Connection::Role::kClient, ClientOptions(client_ability)),
        server(Connection::Role::kServer, ServerOptions(server_ability)) {}

  void Handshake() {
    client.StartHandshake();
    server.StartHandshake();
    net::DirectLinkExchange(client, server);
  }
};

TEST(Connection, HandshakeExchangesSettingsAndAcks) {
  Pair pair;
  pair.Handshake();
  EXPECT_TRUE(pair.client.remote_settings_received());
  EXPECT_TRUE(pair.server.remote_settings_received());
  EXPECT_TRUE(pair.client.local_settings_acked());
  EXPECT_TRUE(pair.server.local_settings_acked());
}

TEST(Connection, GenAbilityNegotiatedWhenBothAdvertise) {
  Pair pair;
  pair.Handshake();
  EXPECT_TRUE(pair.client.generative_mode());
  EXPECT_TRUE(pair.server.generative_mode());
  EXPECT_EQ(pair.client.negotiated_gen_ability(), kGenAbilityFull);
}

TEST(Connection, FallsBackWhenOnlyOneSideParticipates) {
  // "In an exchange between a participating entity and non-participating
  // entity, the participating entity will fall back to default ... The
  // non-participating entity will remain naïve."
  Pair pair(kGenAbilityFull, kGenAbilityNone);
  pair.Handshake();
  EXPECT_FALSE(pair.client.generative_mode());
  EXPECT_FALSE(pair.server.generative_mode());
}

TEST(Connection, NegotiationPendingUntilSettingsArrive) {
  Connection client(Connection::Role::kClient, ClientOptions());
  EXPECT_EQ(client.negotiated_gen_ability(), kGenAbilityNone);
  EXPECT_FALSE(client.generative_mode());
}

TEST(Connection, UnknownSettingFromFutureExtensionIsIgnored) {
  // A hypothetical peer sends both GEN_ABILITY and an unknown parameter;
  // the connection keeps working (RFC 9113 §6.5.2).
  Pair pair;
  pair.client.StartHandshake();
  pair.server.StartHandshake();
  Frame extra = MakeSettingsFrame({{0x09, 77}, {kSettingsGenAbility, 1}});
  Bytes wire = SerializeFrame(extra);
  // Deliver the server's normal output first, then the extra SETTINGS.
  net::DirectLinkExchange(pair.client, pair.server);
  ASSERT_TRUE(pair.client.Receive(wire).ok());
  EXPECT_EQ(pair.client.remote_settings().unknown().at(0x09), 77u);
  EXPECT_TRUE(pair.client.generative_mode());
}

TEST(Connection, RequestResponseRoundTrip) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/index.html", false},
                               {":authority", "example.org", false}};
  auto stream_id = pair.client.SubmitRequest(request, {});
  ASSERT_TRUE(stream_id.ok());
  EXPECT_EQ(stream_id.value(), 1u);
  net::DirectLinkExchange(pair.client, pair.server);

  // Server sees the complete request.
  const Stream* server_stream = pair.server.FindStream(1);
  ASSERT_NE(server_stream, nullptr);
  EXPECT_TRUE(server_stream->remote_end);
  ASSERT_EQ(server_stream->headers.size(), 4u);
  EXPECT_EQ(server_stream->headers[2].value, "/index.html");

  // Server answers.
  hpack::HeaderList response = {{":status", "200", false},
                                {"content-type", "text/html", false}};
  ASSERT_TRUE(pair.server.SubmitHeaders(1, response, false).ok());
  ASSERT_TRUE(pair.server.SubmitData(1, ToBytes("<html></html>"), true).ok());
  net::DirectLinkExchange(pair.client, pair.server);

  const Stream* client_stream = pair.client.FindStream(1);
  ASSERT_NE(client_stream, nullptr);
  EXPECT_EQ(util::ToString(client_stream->body), "<html></html>");
  EXPECT_EQ(client_stream->state, StreamState::kClosed);
}

TEST(Connection, MultiplexedStreamsInterleave) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/a", false}};
  auto s1 = pair.client.SubmitRequest(request, {});
  auto s2 = pair.client.SubmitRequest(request, {});
  auto s3 = pair.client.SubmitRequest(request, {});
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s2.value(), 3u);
  EXPECT_EQ(s3.value(), 5u);  // client streams are odd and increasing
  net::DirectLinkExchange(pair.client, pair.server);
  EXPECT_NE(pair.server.FindStream(1), nullptr);
  EXPECT_NE(pair.server.FindStream(3), nullptr);
  EXPECT_NE(pair.server.FindStream(5), nullptr);
}

TEST(Connection, LargeBodyFlowsThroughFlowControl) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/big", false}};
  auto stream_id = pair.client.SubmitRequest(request, {});
  ASSERT_TRUE(stream_id.ok());
  net::DirectLinkExchange(pair.client, pair.server);

  // 1 MB body: far beyond the 64 KB default connection window, so it only
  // arrives if WINDOW_UPDATE replenishment works in both directions.
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(pair.server
                  .SubmitHeaders(1, {{":status", "200", false}}, false)
                  .ok());
  ASSERT_TRUE(pair.server.SubmitData(1, big, true).ok());
  net::DirectLinkExchange(pair.client, pair.server, /*max_rounds=*/512);

  const Stream* stream = pair.client.FindStream(1);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->body, big);
}

TEST(Connection, ReleaseWithQueuedDataStillDelivers) {
  // Regression: the server app releases the stream immediately after
  // submitting a response that is still queued behind flow control.
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/asset", false}};
  ASSERT_TRUE(pair.client.SubmitRequest(request, {}).ok());
  net::DirectLinkExchange(pair.client, pair.server);

  Bytes big(400000, 0xab);
  ASSERT_TRUE(pair.server
                  .SubmitHeaders(1, {{":status", "200", false}}, false)
                  .ok());
  ASSERT_TRUE(pair.server.SubmitData(1, big, true).ok());
  pair.server.ReleaseStream(1);  // app is done; bytes must still flow
  net::DirectLinkExchange(pair.client, pair.server, /*max_rounds=*/512);
  const Stream* stream = pair.client.FindStream(1);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->body.size(), big.size());
  // Once drained, the released stream is gone on the server.
  EXPECT_EQ(pair.server.FindStream(1), nullptr);
}

TEST(Connection, OversizedHeaderBlockUsesContinuation) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/", false},
                               // Incompressible value far above one frame.
                               {"x-blob", std::string(40000, 'z'), false}};
  ASSERT_TRUE(pair.client.SubmitRequest(request, {}).ok());
  EXPECT_GE(pair.client.wire_stats().frames_sent[FrameType::kContinuation], 1u);
  net::DirectLinkExchange(pair.client, pair.server);
  const Stream* stream = pair.server.FindStream(1);
  ASSERT_NE(stream, nullptr);
  ASSERT_EQ(stream->headers.size(), 4u);
  EXPECT_EQ(stream->headers[3].value.size(), 40000u);
}

TEST(Connection, PingIsAnsweredAutomatically) {
  Pair pair;
  pair.Handshake();
  pair.client.SendPing(0x1234);
  net::DirectLinkExchange(pair.client, pair.server);
  bool acked = false;
  for (const auto& event : pair.client.TakeEvents()) {
    if (event.type == Connection::Event::Type::kPingAcked) {
      acked = true;
      EXPECT_EQ(event.ping_opaque, 0x1234u);
    }
  }
  EXPECT_TRUE(acked);
}

TEST(Connection, GoawayRefusesNewPeerStreams) {
  Pair pair;
  pair.Handshake();
  pair.server.SendGoaway(ErrorCode::kNoError, "maintenance");
  net::DirectLinkExchange(pair.client, pair.server);
  EXPECT_TRUE(pair.client.going_away());

  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/", false}};
  // Client refuses to open new streams after GOAWAY.
  EXPECT_FALSE(pair.client.SubmitRequest(request, {}).ok());
}

TEST(Connection, RstStreamClosesAndReports) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/", false}};
  ASSERT_TRUE(pair.client.SubmitRequest(request, {}).ok());
  net::DirectLinkExchange(pair.client, pair.server);
  ASSERT_TRUE(pair.server.ResetStream(1, ErrorCode::kRefusedStream).ok());
  net::DirectLinkExchange(pair.client, pair.server);
  bool reset_seen = false;
  for (const auto& event : pair.client.TakeEvents()) {
    if (event.type == Connection::Event::Type::kStreamReset) {
      reset_seen = true;
      EXPECT_EQ(event.error, ErrorCode::kRefusedStream);
    }
  }
  EXPECT_TRUE(reset_seen);
  // RST_STREAM sent or received reaps the record on both ends.
  EXPECT_EQ(pair.client.FindStream(1), nullptr);
  EXPECT_EQ(pair.server.FindStream(1), nullptr);
  EXPECT_EQ(pair.client.active_stream_count(), 0u);
  EXPECT_EQ(pair.server.active_stream_count(), 0u);
}

TEST(Connection, DestructionEndsOpenSpans) {
  obs::Tracer& tracer = obs::Tracer::Default();
  const auto finished = [&tracer](obs::SpanId id) {
    const std::vector<obs::Span> spans = tracer.FinishedSpans();
    return std::any_of(spans.begin(), spans.end(),
                       [id](const obs::Span& span) { return span.id == id; });
  };
  obs::SpanId stream_span = 0;
  {
    Pair pair;
    pair.Handshake();
    hpack::HeaderList request = {{":method", "GET", false},
                                 {":scheme", "https", false},
                                 {":path", "/", false}};
    auto stream_id = pair.client.SubmitRequest(request, {});
    ASSERT_TRUE(stream_id.ok());
    net::DirectLinkExchange(pair.client, pair.server);
    // Request sent, no response: the stream is still open on the client.
    ASSERT_NE(pair.client.FindStream(stream_id.value()), nullptr);
    stream_span = pair.client.FindStream(stream_id.value())->span;
    ASSERT_NE(stream_span, 0u);
    EXPECT_FALSE(finished(stream_span));
  }
  EXPECT_TRUE(finished(stream_span));

  // A SETTINGS round-trip the peer never acknowledged ends too.
  {
    Connection lonely(Connection::Role::kClient, ClientOptions());
    lonely.StartHandshake();
  }
  const std::vector<obs::Span> spans = tracer.FinishedSpans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().name, "http2.settings_roundtrip");
}

TEST(Connection, BadClientPrefaceIsProtocolError) {
  Connection server(Connection::Role::kServer, ServerOptions());
  server.StartHandshake();
  auto status = server.Receive(ToBytes("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(server.dead());
}

TEST(Connection, FirstFrameMustBeSettings) {
  Pair pair;
  pair.client.StartHandshake();
  pair.server.StartHandshake();
  // Client preface + a PING before SETTINGS: protocol error.
  Bytes wire = ToBytes(std::string(kClientPreface));
  const Bytes ping = SerializeFrame(MakePingFrame(1, false));
  wire.insert(wire.end(), ping.begin(), ping.end());
  Connection server(Connection::Role::kServer, ServerOptions());
  server.StartHandshake();
  EXPECT_FALSE(server.Receive(wire).ok());
}

TEST(Connection, DataOnIdleStreamIsProtocolError) {
  Pair pair;
  pair.Handshake();
  const Bytes rogue = SerializeFrame(MakeDataFrame(9, ToBytes("x"), false));
  EXPECT_FALSE(pair.server.Receive(rogue).ok());
  EXPECT_TRUE(pair.server.dead());
}

TEST(Connection, SettingsOnNonzeroStreamIsProtocolError) {
  Pair pair;
  pair.Handshake();
  Frame bad = MakeSettingsFrame({});
  bad.header.stream_id = 3;
  EXPECT_FALSE(pair.server.Receive(SerializeFrame(bad)).ok());
}

TEST(Connection, PushPromiseIsRejected) {
  Pair pair;
  pair.Handshake();
  Frame push;
  push.header.type = FrameType::kPushPromise;
  push.header.stream_id = 1;
  push.payload = {0, 0, 0, 2};
  EXPECT_FALSE(pair.client.Receive(SerializeFrame(push)).ok());
}

TEST(Connection, MidConnectionSettingsUpdateReachesPeer) {
  // §5.1: "A server can choose to serve traditional content even if the
  // client supports generative ability" — modelled by re-advertising
  // GEN_ABILITY 0 mid-connection.
  Pair pair;
  pair.Handshake();
  ASSERT_TRUE(pair.client.generative_mode());
  Settings updated = pair.server.local_settings();
  updated.set_gen_ability(kGenAbilityNone);
  pair.server.UpdateLocalSettings(updated);
  net::DirectLinkExchange(pair.client, pair.server);
  EXPECT_FALSE(pair.client.generative_mode());
}

TEST(Connection, WireStatsCountFramesAndBytes) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/", false}};
  ASSERT_TRUE(pair.client.SubmitRequest(request, {}).ok());
  net::DirectLinkExchange(pair.client, pair.server);
  const auto& stats = pair.client.wire_stats();
  EXPECT_GE(stats.frames_sent[FrameType::kSettings], 1u);
  EXPECT_EQ(stats.frames_sent[FrameType::kHeaders], 1u);
  EXPECT_GT(stats.bytes_sent, kClientPreface.size());
  EXPECT_GT(stats.bytes_received, 0u);
}

TEST(Connection, WireStatsCountUnknownFrameTypesInOneSlot) {
  Pair pair;
  pair.Handshake();
  const std::uint64_t before = pair.server.wire_stats().frames_received.total();
  for (std::uint8_t type : {0x0b, 0xfa}) {
    Frame frame;
    frame.header.type = static_cast<FrameType>(type);
    frame.header.stream_id = 1;
    frame.payload = ToBytes("ext");
    frame.header.length = static_cast<std::uint32_t>(frame.payload.size());
    ASSERT_TRUE(pair.server.Receive(SerializeFrame(frame)).ok());
  }
  const FrameCounts& received = pair.server.wire_stats().frames_received;
  EXPECT_EQ(received[static_cast<FrameType>(0x0b)], 2u);
  EXPECT_EQ(received[static_cast<FrameType>(0xfa)], 2u);
  EXPECT_EQ(received.total(), before + 2);
  const std::map<FrameType, std::uint64_t> mix = received;
  EXPECT_EQ(mix.at(static_cast<FrameType>(kFrameTypeCount)), 2u);
  EXPECT_EQ(mix.at(FrameType::kSettings), received[FrameType::kSettings]);
}

TEST(Connection, ServerRejectsRequestWhenConcurrencyExceeded) {
  Connection::Options server_options = ServerOptions();
  server_options.local_settings.set_max_concurrent_streams(1);
  Connection server(Connection::Role::kServer, server_options);
  Connection client(Connection::Role::kClient, ClientOptions());
  client.StartHandshake();
  server.StartHandshake();
  net::DirectLinkExchange(client, server);

  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/", false}};
  ASSERT_TRUE(client.SubmitRequest(request, {}).ok());
  ASSERT_TRUE(client.SubmitRequest(request, {}).ok());
  net::DirectLinkExchange(client, server);
  bool refused = false;
  for (const auto& event : client.TakeEvents()) {
    if (event.type == Connection::Event::Type::kStreamReset &&
        event.error == ErrorCode::kRefusedStream) {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
}

TEST(Connection, OutputViewMatchesTakeOutput) {
  Pair pair;
  pair.client.StartHandshake();
  ASSERT_TRUE(pair.client.HasOutput());
  const util::BytesView view = pair.client.OutputView();
  const Bytes copied(view.begin(), view.end());
  // TakeOutput must return exactly the viewed bytes, then both are drained.
  EXPECT_EQ(TakeOutput(pair.client), copied);
  EXPECT_FALSE(pair.client.HasOutput());
  EXPECT_TRUE(pair.client.OutputView().empty());
}

TEST(Connection, ClearOutputDrainsWithoutCopy) {
  Pair pair;
  pair.client.StartHandshake();
  ASSERT_TRUE(pair.client.HasOutput());
  pair.client.ClearOutput();
  EXPECT_FALSE(pair.client.HasOutput());
  EXPECT_EQ(TakeOutput(pair.client), Bytes{});
}

TEST(Connection, SteadyStateRequestsStopAllocatingOutput) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/steady", false},
                               {":authority", "sww.local", false}};
  const Bytes body(512, 0x33);
  auto warm = [&] {
    auto stream_id = pair.client.SubmitRequest(request, body);
    ASSERT_TRUE(stream_id.ok());
    net::DirectLinkExchange(pair.client, pair.server);
    ASSERT_TRUE(pair.server
                    .SubmitHeaders(stream_id.value(),
                                   {{":status", "200", false}}, true)
                    .ok());
    net::DirectLinkExchange(pair.client, pair.server);
    pair.client.ReleaseStream(stream_id.value());
    pair.server.ReleaseStream(stream_id.value());
  };
  for (int i = 0; i < 8; ++i) warm();
  // After warm-up the output arenas are at their high-water mark: identical
  // request/response rounds must not allocate in the serialization path.
  const std::uint64_t client_allocs = pair.client.output_allocations();
  const std::uint64_t server_allocs = pair.server.output_allocations();
  for (int i = 0; i < 32; ++i) warm();
  EXPECT_EQ(pair.client.output_allocations(), client_allocs);
  EXPECT_EQ(pair.server.output_allocations(), server_allocs);
}

// --- stream records: reaping and the O(1) active count ------------------------

/// Test oracle for the O(1) active_stream_count(): scan every id up to
/// `max_id` for a record that is not closed.
std::size_t ScanActiveStreams(const Connection& connection, std::uint32_t max_id) {
  std::size_t count = 0;
  for (std::uint32_t id = 1; id <= max_id; ++id) {
    const Stream* stream = connection.FindStream(id);
    if (stream != nullptr && stream->state != StreamState::kClosed) ++count;
  }
  return count;
}

/// Every frame in `wire` (a connection's output after the preface).
std::vector<Frame> ParseFrames(util::BytesView wire) {
  FrameParser parser;
  parser.Feed(wire);
  std::vector<Frame> frames;
  while (true) {
    auto next = parser.Next();
    EXPECT_TRUE(next.ok());
    if (!next.ok() || !next.value().has_value()) break;
    frames.push_back(std::move(*next.value()));
  }
  return frames;
}

/// Move the client's pending output into the server; return what the
/// server queued in answer (and drain it).
Bytes DeliverToServer(Pair& pair, util::Status& status) {
  status = pair.server.Receive(TakeOutput(pair.client));
  return TakeOutput(pair.server);
}

const hpack::HeaderList kGet = {{":method", "GET", false},
                                {":scheme", "https", false},
                                {":path", "/", false}};

TEST(ConnectionStreams, RapidResetLeavesNoRecords) {
  Pair pair;
  pair.Handshake();
  constexpr std::uint32_t kPairs = 10000;
  constexpr std::uint32_t kBatch = 100;
  std::size_t server_resets = 0;
  for (std::uint32_t sent = 0; sent < kPairs; sent += kBatch) {
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      // HEADERS without END_STREAM, then RST_STREAM right behind it.
      auto stream_id = pair.client.SubmitRequest(kGet, {}, false);
      ASSERT_TRUE(stream_id.ok());
      ASSERT_TRUE(pair.client.ResetStream(stream_id.value(), ErrorCode::kCancel).ok());
    }
    net::DirectLinkExchange(pair.client, pair.server);
    for (const auto& event : pair.server.TakeEvents()) {
      if (event.type == Connection::Event::Type::kStreamReset) ++server_resets;
    }
    (void)pair.client.TakeEvents();
  }
  EXPECT_FALSE(pair.client.dead());
  EXPECT_FALSE(pair.server.dead());
  EXPECT_EQ(server_resets, kPairs);
  const std::uint32_t max_id = 2 * kPairs - 1;
  for (std::uint32_t id = 1; id <= max_id; id += 2) {
    ASSERT_EQ(pair.client.FindStream(id), nullptr) << "client id " << id;
    ASSERT_EQ(pair.server.FindStream(id), nullptr) << "server id " << id;
  }
  EXPECT_EQ(pair.client.active_stream_count(), 0u);
  EXPECT_EQ(pair.server.active_stream_count(), 0u);
}

TEST(ConnectionStreams, ActiveCountMatchesScanOracleUnderRandomSteps) {
  Pair pair;
  pair.Handshake();
  std::mt19937 rng(20251);
  std::vector<std::uint32_t> opened;
  std::uint32_t max_id = 0;
  std::size_t peak_active = 0;
  const auto pick = [&]() -> std::uint32_t {
    if (opened.empty()) return 0;
    return opened[std::uniform_int_distribution<std::size_t>(
        0, opened.size() - 1)(rng)];
  };
  for (int step = 0; step < 2000; ++step) {
    const int op = std::uniform_int_distribution<int>(0, 6)(rng);
    const std::uint32_t id = pick();
    const Stream* client_stream = id == 0 ? nullptr : pair.client.FindStream(id);
    const Stream* server_stream = id == 0 ? nullptr : pair.server.FindStream(id);
    switch (op) {
      case 0: {  // open, with or without a request body
        const bool with_body = (rng() % 2) == 0;
        const Bytes body(with_body ? 1000 : 0, 0x5a);
        auto stream_id = pair.client.SubmitRequest(kGet, body, (rng() % 4) != 0);
        ASSERT_TRUE(stream_id.ok());
        opened.push_back(stream_id.value());
        max_id = stream_id.value();
        break;
      }
      case 1:  // client ends its half
        if (client_stream != nullptr && client_stream->CanSendData()) {
          ASSERT_TRUE(pair.client.SubmitData(id, {}, true).ok());
        }
        break;
      case 2:  // server answers; a large body waits behind flow control
        if (server_stream != nullptr && server_stream->CanSendData()) {
          ASSERT_TRUE(pair.server.SubmitHeaders(id, {{":status", "200", false}}, false).ok());
          const Bytes body((rng() % 3) == 0 ? 150000 : 200, 0x11);
          ASSERT_TRUE(pair.server.SubmitData(id, body, true).ok());
        }
        break;
      case 3:  // client resets
        if (client_stream != nullptr) {
          ASSERT_TRUE(pair.client.ResetStream(id, ErrorCode::kCancel).ok());
        }
        break;
      case 4:  // server resets
        if (server_stream != nullptr) {
          ASSERT_TRUE(pair.server.ResetStream(id, ErrorCode::kRefusedStream).ok());
        }
        break;
      case 5:  // client releases a complete response
        if (client_stream != nullptr && client_stream->remote_end) {
          pair.client.ReleaseStream(id);
        }
        break;
      case 6:  // server releases once it has ended its half
        if (server_stream != nullptr && server_stream->local_end) {
          pair.server.ReleaseStream(id);
        }
        break;
    }
    ASSERT_EQ(pair.client.active_stream_count(), ScanActiveStreams(pair.client, max_id))
        << "step " << step;
    ASSERT_EQ(pair.server.active_stream_count(), ScanActiveStreams(pair.server, max_id))
        << "step " << step;
    peak_active = std::max(peak_active, pair.server.active_stream_count());
    if (step % 3 == 0) {
      net::DirectLinkExchange(pair.client, pair.server, 512);
      (void)pair.client.TakeEvents();
      (void)pair.server.TakeEvents();
      ASSERT_EQ(pair.client.active_stream_count(),
                ScanActiveStreams(pair.client, max_id));
      ASSERT_EQ(pair.server.active_stream_count(),
                ScanActiveStreams(pair.server, max_id));
    }
  }
  EXPECT_FALSE(pair.client.dead());
  EXPECT_FALSE(pair.server.dead());
  EXPECT_GE(peak_active, 3u);  // the walk really overlaps streams
}

/// Opens stream 1 (HEADERS without END_STREAM) and stream 3, then sends
/// `prefill` DATA bytes on stream 3 so the server's connection-level
/// receive counter sits just below its WINDOW_UPDATE threshold.
void OpenTwoStreams(Pair& pair, std::size_t prefill) {
  pair.Handshake();
  ASSERT_TRUE(pair.client.SubmitRequest(kGet, {}, false).ok());
  ASSERT_TRUE(pair.client.SubmitRequest(kGet, {}, false).ok());
  ASSERT_TRUE(pair.client.SubmitData(3, Bytes(prefill, 0x22), false).ok());
  util::Status status;
  EXPECT_TRUE(DeliverToServer(pair, status).empty());
  ASSERT_TRUE(status.ok());
}

TEST(ConnectionStreams, DataOnStreamTheReceiverResetGetsStreamClosed) {
  Pair pair;
  OpenTwoStreams(pair, 32700);
  // The server resets stream 1; the RST is still in flight when the
  // client's DATA arrives.
  ASSERT_TRUE(pair.server.ResetStream(1, ErrorCode::kCancel).ok());
  (void)TakeOutput(pair.server);
  EXPECT_EQ(pair.server.FindStream(1), nullptr);
  ASSERT_TRUE(pair.client.SubmitData(1, Bytes(100, 0x33), false).ok());
  util::Status status;
  const std::vector<Frame> frames = ParseFrames(DeliverToServer(pair, status));
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(pair.server.dead());
  // A STREAM_CLOSED stream error, and the 100 bytes still count against
  // the connection window: 32,800 crosses the 32,768 threshold.
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].header.type, FrameType::kRstStream);
  EXPECT_EQ(frames[0].header.stream_id, 1u);
  EXPECT_EQ(ParseRstStreamPayload(frames[0]).value(), ErrorCode::kStreamClosed);
  EXPECT_EQ(frames[1].header.type, FrameType::kWindowUpdate);
  EXPECT_EQ(frames[1].header.stream_id, 0u);
  EXPECT_EQ(ParseWindowUpdatePayload(frames[1]).value(), 32800u);
}

TEST(ConnectionStreams, DataOnStreamThePeerResetGetsStreamClosed) {
  Pair pair;
  OpenTwoStreams(pair, 32700);
  // The client resets stream 1, then (misbehaving) keeps sending on it.
  ASSERT_TRUE(pair.client.ResetStream(1, ErrorCode::kCancel).ok());
  util::Status status;
  EXPECT_TRUE(DeliverToServer(pair, status).empty());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(pair.server.FindStream(1), nullptr);
  ASSERT_TRUE(pair.server.Receive(SerializeFrame(MakeDataFrame(1, Bytes(100, 0x33), false)))
                  .ok());
  const std::vector<Frame> frames = ParseFrames(TakeOutput(pair.server));
  EXPECT_FALSE(pair.server.dead());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].header.type, FrameType::kRstStream);
  EXPECT_EQ(frames[0].header.stream_id, 1u);
  EXPECT_EQ(ParseRstStreamPayload(frames[0]).value(), ErrorCode::kStreamClosed);
  EXPECT_EQ(frames[1].header.type, FrameType::kWindowUpdate);
  EXPECT_EQ(frames[1].header.stream_id, 0u);
  EXPECT_EQ(ParseWindowUpdatePayload(frames[1]).value(), 32800u);
}

/// Trailers on a reset stream get a STREAM_CLOSED stream error: one
/// RST_STREAM on that stream, and the connection stays up.
void ExpectStreamClosedReset(Connection& connection, const util::Status& status) {
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(connection.dead());
  const std::vector<Frame> frames = ParseFrames(TakeOutput(connection));
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].header.type, FrameType::kRstStream);
  EXPECT_EQ(frames[0].header.stream_id, 1u);
  EXPECT_EQ(ParseRstStreamPayload(frames[0]).value(), ErrorCode::kStreamClosed);
}

TEST(ConnectionStreams, TrailersOnStreamTheReceiverResetGetStreamClosed) {
  Pair pair;
  OpenTwoStreams(pair, 0);
  ASSERT_TRUE(pair.server.ResetStream(1, ErrorCode::kCancel).ok());
  (void)TakeOutput(pair.server);
  ASSERT_TRUE(pair.client.SubmitHeaders(1, {{"x-trailer", "1", false}}, true).ok());
  ExpectStreamClosedReset(pair.server,
                          pair.server.Receive(TakeOutput(pair.client)));
  // The dropped block was still decoded: stream 3's trailers refer to
  // the table entry it added, and they arrive intact.
  ASSERT_TRUE(pair.client.SubmitHeaders(3, {{"x-trailer", "1", false}}, true).ok());
  util::Status status;
  EXPECT_TRUE(DeliverToServer(pair, status).empty());
  ASSERT_TRUE(status.ok());
  const Stream* stream = pair.server.FindStream(3);
  ASSERT_NE(stream, nullptr);
  ASSERT_EQ(stream->trailers.size(), 1u);
  EXPECT_EQ(stream->trailers[0].value, "1");
}

TEST(ConnectionStreams, TrailersOnStreamThePeerResetGetStreamClosed) {
  Pair pair;
  OpenTwoStreams(pair, 0);
  ASSERT_TRUE(pair.client.ResetStream(1, ErrorCode::kCancel).ok());
  util::Status status;
  EXPECT_TRUE(DeliverToServer(pair, status).empty());
  ASSERT_TRUE(status.ok());
  // A misbehaving peer: its own encoder, trailers on the stream it reset,
  // then a request on stream 5 that refers to the trailer's table entry.
  hpack::Encoder encoder;
  const auto headers_frame = [&encoder](std::uint32_t stream_id,
                                        const hpack::HeaderList& headers) {
    Frame frame;
    frame.header.type = FrameType::kHeaders;
    frame.header.flags = kFlagEndHeaders | kFlagEndStream;
    frame.header.stream_id = stream_id;
    frame.payload = encoder.EncodeBlock(headers);
    frame.header.length = static_cast<std::uint32_t>(frame.payload.size());
    return SerializeFrame(frame);
  };
  status = pair.server.Receive(headers_frame(1, {{"x-trailer", "1", false}}));
  ExpectStreamClosedReset(pair.server, status);
  hpack::HeaderList request = kGet;
  request.push_back({"x-trailer", "1", false});
  ASSERT_TRUE(pair.server.Receive(headers_frame(5, request)).ok());
  const Stream* stream = pair.server.FindStream(5);
  ASSERT_NE(stream, nullptr);
  ASSERT_EQ(stream->headers.size(), 4u);
  EXPECT_EQ(stream->headers[3].value, "1");
}

TEST(ConnectionStreams, ResponseHeadersOnStreamTheClientResetKeepTheConnection) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = kGet;
  request.push_back({"x-page", "fig2", false});
  ASSERT_TRUE(pair.client.SubmitRequest(request, {}).ok());  // stream 1
  ASSERT_TRUE(pair.client.SubmitRequest(kGet, {}).ok());     // stream 3
  util::Status status;
  (void)DeliverToServer(pair, status);
  ASSERT_TRUE(status.ok());
  // Stream 1's response adds an entry to the server encoder's dynamic
  // table; stream 3's response below refers to it by index.
  const hpack::HeaderList response = {{":status", "200", false},
                                      {"x-render", "on-device", false}};
  ASSERT_TRUE(pair.server.SubmitHeaders(1, response, false).ok());
  ASSERT_TRUE(pair.server.SubmitData(1, Bytes(100, 0x61), true).ok());
  const Bytes in_flight = TakeOutput(pair.server);
  // The client cancels stream 1 while its response is in flight.
  ASSERT_TRUE(pair.client.ResetStream(1, ErrorCode::kCancel).ok());
  ASSERT_TRUE(pair.client.Receive(in_flight).ok());
  EXPECT_FALSE(pair.client.dead());
  EXPECT_EQ(pair.client.FindStream(1), nullptr);
  // CANCEL from the reset, then a STREAM_CLOSED answer to each of the
  // HEADERS and the DATA frame.
  const Bytes answers = TakeOutput(pair.client);
  const std::vector<Frame> frames = ParseFrames(answers);
  ASSERT_EQ(frames.size(), 3u);
  const ErrorCode codes[] = {ErrorCode::kCancel, ErrorCode::kStreamClosed,
                             ErrorCode::kStreamClosed};
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].header.type, FrameType::kRstStream);
    EXPECT_EQ(frames[i].header.stream_id, 1u);
    EXPECT_EQ(ParseRstStreamPayload(frames[i]).value(), codes[i]);
  }
  ASSERT_TRUE(pair.server.Receive(answers).ok());
  EXPECT_FALSE(pair.server.dead());

  // Stream 3 still completes, and its indexed response header decodes.
  ASSERT_TRUE(pair.server.SubmitHeaders(3, response, false).ok());
  ASSERT_TRUE(pair.server.SubmitData(3, ToBytes("page"), true).ok());
  ASSERT_TRUE(pair.client.Receive(TakeOutput(pair.server)).ok());
  const Stream* stream = pair.client.FindStream(3);
  ASSERT_NE(stream, nullptr);
  EXPECT_TRUE(stream->remote_end);
  ASSERT_EQ(stream->headers.size(), 2u);
  EXPECT_EQ(stream->headers[1].value, "on-device");
  EXPECT_EQ(stream->body, ToBytes("page"));

  // The next request refers to stream 1's request header by index.
  ASSERT_TRUE(pair.client.SubmitRequest(request, {}).ok());  // stream 5
  (void)DeliverToServer(pair, status);
  ASSERT_TRUE(status.ok());
  const Stream* next = pair.server.FindStream(5);
  ASSERT_NE(next, nullptr);
  ASSERT_EQ(next->headers.size(), 4u);
  EXPECT_EQ(next->headers[3].value, "fig2");
  EXPECT_FALSE(pair.client.dead());
  EXPECT_FALSE(pair.server.dead());
}

TEST(ConnectionStreams, ResponseOnStreamTheClientResetCountsAgainstWindow) {
  Pair pair;
  OpenTwoStreams(pair, 0);
  // The client cancels stream 1 while the server's response is in flight.
  ASSERT_TRUE(pair.client.ResetStream(1, ErrorCode::kCancel).ok());
  (void)TakeOutput(pair.client);
  ASSERT_TRUE(pair.server.SubmitHeaders(3, {{":status", "200", false}}, false).ok());
  ASSERT_TRUE(pair.server.SubmitData(3, Bytes(32700, 0x44), false).ok());
  ASSERT_TRUE(pair.client.Receive(TakeOutput(pair.server)).ok());
  (void)TakeOutput(pair.client);
  ASSERT_TRUE(pair.client.Receive(SerializeFrame(MakeDataFrame(1, Bytes(100, 0x55), true)))
                  .ok());
  const std::vector<Frame> frames = ParseFrames(TakeOutput(pair.client));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].header.type, FrameType::kRstStream);
  EXPECT_EQ(ParseRstStreamPayload(frames[0]).value(), ErrorCode::kStreamClosed);
  EXPECT_EQ(frames[1].header.type, FrameType::kWindowUpdate);
  EXPECT_EQ(frames[1].header.stream_id, 0u);
  EXPECT_EQ(ParseWindowUpdatePayload(frames[1]).value(), 32800u);
  EXPECT_EQ(pair.client.FindStream(1), nullptr);
  EXPECT_FALSE(pair.client.dead());
}

TEST(ConnectionStreams, RefusedStreamHeaderBlockStillDecoded) {
  Connection::Options server_options = ServerOptions();
  server_options.local_settings.set_max_concurrent_streams(1);
  Connection server(Connection::Role::kServer, server_options);
  Connection client(Connection::Role::kClient, ClientOptions());
  client.StartHandshake();
  server.StartHandshake();
  net::DirectLinkExchange(client, server);
  // The refused request inserts a header into the HPACK dynamic table;
  // the third request refers to it by index.  If the server skipped the
  // refused block, its decoder would fall out of step.
  const hpack::HeaderList custom = {{":method", "GET", false},
                                    {":scheme", "https", false},
                                    {":path", "/", false},
                                    {"x-custom", "first-seen-in-refused", false}};
  ASSERT_TRUE(client.SubmitRequest(kGet, {}, false).ok());
  ASSERT_TRUE(client.SubmitRequest(custom, {}).ok());
  net::DirectLinkExchange(client, server);
  EXPECT_EQ(server.FindStream(3), nullptr);
  ASSERT_TRUE(client.ResetStream(1, ErrorCode::kCancel).ok());
  ASSERT_TRUE(client.SubmitRequest(custom, {}).ok());
  net::DirectLinkExchange(client, server);
  EXPECT_FALSE(server.dead());
  const Stream* stream = server.FindStream(5);
  ASSERT_NE(stream, nullptr);
  ASSERT_EQ(stream->headers.size(), 4u);
  EXPECT_EQ(stream->headers[3].value, "first-seen-in-refused");
}

/// A peer that never sends END_HEADERS: HEADERS on `stream_id`, then
/// full-size CONTINUATION frames.  The server must stop assembling once
/// the block passes Connection::kMaxHeaderBlockBytes and close the
/// connection with GOAWAY ENHANCE_YOUR_CALM.  The fragments are never
/// decoded, so their bytes need not be valid HPACK.
void ExpectContinuationFloodRejected(Connection& server,
                                     std::uint32_t stream_id) {
  Frame headers;
  headers.header.type = FrameType::kHeaders;
  headers.header.stream_id = stream_id;
  headers.payload = Bytes(64, 0x82);
  ASSERT_TRUE(server.Receive(SerializeFrame(headers)).ok());
  (void)TakeOutput(server);
  Frame continuation;
  continuation.header.type = FrameType::kContinuation;
  continuation.header.stream_id = stream_id;
  continuation.payload = Bytes(kDefaultMaxFrameSize, 0x82);
  std::size_t sent = headers.payload.size();
  util::Status status = util::Status::Ok();
  while (status.ok() && sent <= 2 * Connection::kMaxHeaderBlockBytes) {
    status = server.Receive(SerializeFrame(continuation));
    sent += continuation.payload.size();
  }
  ASSERT_FALSE(status.ok()) << "assembled " << sent << " bytes";
  EXPECT_GT(sent, Connection::kMaxHeaderBlockBytes);
  EXPECT_LE(sent, Connection::kMaxHeaderBlockBytes + kDefaultMaxFrameSize);
  EXPECT_TRUE(server.dead());
  const std::vector<Frame> frames = ParseFrames(TakeOutput(server));
  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.back().header.type, FrameType::kGoaway);
  EXPECT_EQ(ParseGoawayPayload(frames.back()).value().error_code,
            ErrorCode::kEnhanceYourCalm);
}

TEST(ConnectionStreams, ContinuationFloodOnOpenStreamIsEnhanceYourCalm) {
  Pair pair;
  pair.Handshake();
  ExpectContinuationFloodRejected(pair.server, 1);
}

TEST(ConnectionStreams, ContinuationFloodOnRefusedStreamIsEnhanceYourCalm) {
  Connection::Options server_options = ServerOptions();
  server_options.local_settings.set_max_concurrent_streams(1);
  Connection server(Connection::Role::kServer, server_options);
  Connection client(Connection::Role::kClient, ClientOptions());
  client.StartHandshake();
  server.StartHandshake();
  net::DirectLinkExchange(client, server);
  ASSERT_TRUE(client.SubmitRequest(kGet, {}, false).ok());  // stream 1
  net::DirectLinkExchange(client, server);
  ASSERT_NE(server.FindStream(1), nullptr);
  // Stream 3 is over the limit: refused, but its block is still assembled.
  ExpectContinuationFloodRejected(server, 3);
  EXPECT_EQ(server.FindStream(3), nullptr);
}

}  // namespace
}  // namespace sww::http2
