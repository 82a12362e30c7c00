// Robustness suite: fuzz-style property tests and failure injection.
// Network-facing parsers must never crash, hang, or mis-handle hostile
// input — they either produce a value or a typed error, and connections
// die with a GOAWAY rather than undefined behaviour.
#include <gtest/gtest.h>

#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "hpack/hpack.hpp"
#include "hpack/huffman.hpp"
#include "html/entities.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"
#include "http2/connection.hpp"
#include "json/json.hpp"
#include "net/pump.hpp"
#include "oracles/http2.hpp"
#include "util/rng.hpp"

namespace sww {
namespace {

util::Bytes RandomBytes(util::Rng& rng, std::size_t max_length) {
  util::Bytes bytes(rng.NextBounded(max_length));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  return bytes;
}

std::string RandomAsciiSoup(util::Rng& rng, std::size_t max_length) {
  static const char kChars[] =
      "<>/=\"' abcdefgXYZ&;#{}[]:,.!-\t\nclassdivimgmetadatapromptgenerated";
  std::string out;
  const std::size_t length = rng.NextBounded(max_length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kChars[rng.NextIndex(sizeof(kChars) - 1)]);
  }
  return out;
}

// --- parser fuzzing ----------------------------------------------------------

TEST(Fuzz, HpackDecoderSurvivesRandomBlocks) {
  util::Rng rng(0xF00D);
  hpack::Decoder decoder;
  int decoded = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const util::Bytes block = RandomBytes(rng, 64);
    auto result = decoder.DecodeBlock(block);
    result.ok() ? ++decoded : ++rejected;
  }
  // Both outcomes occur; neither crashes.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Fuzz, HuffmanDecoderSurvivesRandomBytes) {
  util::Rng rng(0xBEEF);
  for (int trial = 0; trial < 2000; ++trial) {
    const util::Bytes data = RandomBytes(rng, 48);
    (void)hpack::HuffmanDecode(data);  // value or error; never UB
  }
  SUCCEED();
}

TEST(Fuzz, FrameParserSurvivesRandomStreams) {
  util::Rng rng(0xCAFE);
  for (int trial = 0; trial < 500; ++trial) {
    http2::FrameParser parser;
    parser.Feed(RandomBytes(rng, 256));
    for (int i = 0; i < 64; ++i) {
      auto next = parser.Next();
      if (!next.ok() || !next.value().has_value()) break;
    }
  }
  SUCCEED();
}

TEST(Fuzz, ServerConnectionSurvivesGarbageAfterPreface) {
  util::Rng rng(0x5EED);
  for (int trial = 0; trial < 300; ++trial) {
    http2::Connection::Options options;
    options.local_settings.set_gen_ability(http2::kGenAbilityFull);
    http2::Connection server(http2::Connection::Role::kServer, options);
    server.StartHandshake();
    util::Bytes wire = util::ToBytes(std::string(http2::kClientPreface));
    // A valid SETTINGS frame first (so random frames reach deeper states
    // half the time), then garbage.
    if (rng.NextBool()) {
      const util::Bytes settings =
          oracles::SerializeFrame(http2::MakeSettingsFrame({}));
      wire.insert(wire.end(), settings.begin(), settings.end());
    }
    const util::Bytes garbage = RandomBytes(rng, 128);
    wire.insert(wire.end(), garbage.begin(), garbage.end());
    auto status = server.Receive(wire);
    if (!status.ok()) {
      EXPECT_TRUE(server.dead());
      // A GOAWAY was queued for the peer before dying.
      const util::Bytes out = oracles::TakeOutput(server);
      EXPECT_FALSE(out.empty());
    }
  }
}

TEST(Fuzz, HtmlParserSurvivesTagSoup) {
  util::Rng rng(0xD00D);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string soup = RandomAsciiSoup(rng, 300);
    auto doc = html::ParseDocument(soup);
    if (!doc.ok()) continue;  // only the depth limit may reject
    // Whatever parsed must re-serialize and re-parse to a fixed point.
    const std::string once = doc.value()->Serialize();
    auto doc2 = html::ParseDocument(once);
    ASSERT_TRUE(doc2.ok());
    EXPECT_EQ(once, doc2.value()->Serialize()) << "trial " << trial;
  }
}

TEST(Fuzz, JsonParserSurvivesNoise) {
  util::Rng rng(0xACED);
  int parsed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = RandomAsciiSoup(rng, 80);
    if (json::Parse(text).ok()) ++parsed;
  }
  // Random soup virtually never parses — but must never crash.
  EXPECT_LT(parsed, 50);
}

TEST(Fuzz, GeneratedContentExtractionToleratesHostileMetadata) {
  util::Rng rng(0x1CEB);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string html =
        R"(<div class="generated content" content-type="img" metadata=")" +
        html::EscapeAttribute(RandomAsciiSoup(rng, 60)) + R"("></div>)";
    auto doc = html::ParseDocument(html);
    ASSERT_TRUE(doc.ok());
    // Either a valid spec or a reported error — never a crash, never a
    // silent half-parsed spec.
    html::ExtractionResult result = html::ExtractGeneratedContent(*doc.value());
    EXPECT_EQ(result.specs.size() + result.errors.size(), 1u);
  }
}

// --- protocol property: chunking independence ---------------------------------

TEST(Property, ConnectionResultIndependentOfChunking) {
  // The same wire bytes, delivered in any chunking, produce the same
  // stream state.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    http2::Connection::Options options;
    http2::Connection client(http2::Connection::Role::kClient, options);
    http2::Connection server(http2::Connection::Role::kServer, options);
    client.StartHandshake();
    server.StartHandshake();
    (void)server.Receive(oracles::TakeOutput(client));
    hpack::HeaderList request = {{":method", "GET", false},
                                 {":scheme", "https", false},
                                 {":path", "/x", false}};
    (void)client.Receive(oracles::TakeOutput(server));
    (void)client.SubmitRequest(request, util::ToBytes("hello body"));
    const util::Bytes wire = oracles::TakeOutput(client);

    // Reference: single delivery.
    http2::Connection reference(http2::Connection::Role::kServer, options);
    reference.StartHandshake();
    const util::Bytes preface_and_settings = [] {
      http2::Connection c(http2::Connection::Role::kClient, {});
      c.StartHandshake();
      return oracles::TakeOutput(c);
    }();
    // Build the full byte stream the server sees.
    util::Bytes full;
    {
      http2::Connection c(http2::Connection::Role::kClient, options);
      c.StartHandshake();
      util::Bytes handshake = oracles::TakeOutput(c);
      // Server's settings not required before client sends.
      (void)c.SubmitRequest(request, util::ToBytes("hello body"));
      util::Bytes rest = oracles::TakeOutput(c);
      full = std::move(handshake);
      full.insert(full.end(), rest.begin(), rest.end());
    }
    ASSERT_TRUE(reference.Receive(full).ok());

    // Random chunking must land in the same state.
    http2::Connection chunked(http2::Connection::Role::kServer, options);
    chunked.StartHandshake();
    util::Rng rng(seed);
    std::size_t offset = 0;
    while (offset < full.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.NextBounded(13), full.size() - offset);
      ASSERT_TRUE(chunked
                      .Receive(util::BytesView(full.data() + offset, n))
                      .ok());
      offset += n;
    }
    const http2::Stream* a = reference.FindStream(1);
    const http2::Stream* b = chunked.FindStream(1);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->headers, b->headers);
    EXPECT_EQ(a->body, b->body);
    EXPECT_EQ(a->state, b->state);
  }
}

// --- failure injection -----------------------------------------------------------

TEST(FailureInjection, ClientSurfacesTransportDeathMidFetch) {
  core::ContentStore store;
  ASSERT_TRUE(store.AddPage("/", core::MakeGoldfishPage()).ok());
  auto client = core::GenerativeClient::Create({});
  ASSERT_TRUE(client.ok());
  client.value()->StartHandshake();
  int pumps = 0;
  auto dying_pump = [&pumps]() -> util::Status {
    if (++pumps > 3) {
      return util::Error(util::ErrorCode::kIo, "transport died");
    }
    return util::Status::Ok();
  };
  auto fetch = client.value()->FetchPage("/", dying_pump);
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.error().code, util::ErrorCode::kIo);
}

TEST(FailureInjection, PumpThatNeverProgressesTimesOutCleanly) {
  auto client = core::GenerativeClient::Create({});
  ASSERT_TRUE(client.ok());
  client.value()->StartHandshake();
  auto black_hole = []() -> util::Status { return util::Status::Ok(); };
  auto fetch = client.value()->FetchRaw("/", black_hole);
  ASSERT_FALSE(fetch.ok());  // bounded retries, then a typed error
  EXPECT_EQ(fetch.error().code, util::ErrorCode::kIo);
}

TEST(FailureInjection, ServerAnswers405ForNonGet) {
  core::ContentStore store;
  ASSERT_TRUE(store.AddPage("/", core::MakeGoldfishPage()).ok());
  auto session = core::LocalSession::Start(&store, {});
  ASSERT_TRUE(session.ok());
  // Issue a POST through the raw connection.
  core::Request request;
  request.method = "POST";
  request.path = "/";
  auto stream_id = session.value()->client().connection().SubmitRequest(
      request.ToHeaders(), util::ToBytes("body"));
  ASSERT_TRUE(stream_id.ok());
  auto pump = session.value()->Pump();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pump().ok());
  }
  const http2::Stream* stream =
      session.value()->client().connection().FindStream(stream_id.value());
  ASSERT_NE(stream, nullptr);
  auto response = core::ParseResponse(stream->headers, stream->body);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 405);
  EXPECT_EQ(response.value().Header("allow").value_or(""), "GET");
}

TEST(FailureInjection, MalformedRequestGets400NotConnectionDeath) {
  core::ContentStore store;
  ASSERT_TRUE(store.AddPage("/", core::MakeGoldfishPage()).ok());
  auto session = core::LocalSession::Start(&store, {});
  ASSERT_TRUE(session.ok());
  // Hand-craft a header list with a pseudo-header after a regular header —
  // valid HPACK, invalid HTTP semantics.
  hpack::HeaderList bad = {{":method", "GET", false},
                           {"accept", "*/*", false},
                           {":path", "/", false}};
  auto stream_id =
      session.value()->client().connection().SubmitRequest(bad, {});
  ASSERT_TRUE(stream_id.ok());
  auto pump = session.value()->Pump();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(pump().ok());
  const http2::Stream* stream =
      session.value()->client().connection().FindStream(stream_id.value());
  ASSERT_NE(stream, nullptr);
  auto response = core::ParseResponse(stream->headers, stream->body);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 400);
  // The connection itself survives: a good request still works.
  auto fetch = session.value()->FetchPage("/");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().response.status, 200);
}

TEST(FailureInjection, StoreRefusesPageWithBrokenMetadataUpFront) {
  // Defense in depth: invalid pages are rejected at authoring time, so
  // the serving path never meets them.
  core::ContentStore store;
  const std::string bad =
      R"(<div class="generated content" content-type="img" metadata="{oops"></div>)";
  auto status = store.AddPage("/bad", bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kMalformed);
}

TEST(FailureInjection, HugeHeaderListRejectedByReceiver) {
  http2::Connection::Options server_options;
  server_options.local_settings.set_max_header_list_size(256);
  http2::Connection server(http2::Connection::Role::kServer, server_options);
  http2::Connection client(http2::Connection::Role::kClient, {});
  client.StartHandshake();
  server.StartHandshake();
  net::DirectLinkExchange(client, server);
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/", false},
                               {"x-big", std::string(1000, 'x'), false}};
  ASSERT_TRUE(client.SubmitRequest(request, {}).ok());
  auto status = server.Receive(oracles::TakeOutput(client));
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(server.dead());
}

}  // namespace
}  // namespace sww
