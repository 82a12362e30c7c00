// Integration tests: the full SWW client/server flow of §5 and the §6.2
// functionality matrix, over in-process connections and loopback TCP.
#include <gtest/gtest.h>

#include <thread>

#include "core/page_builder.hpp"
#include "core/renderer.hpp"
#include "core/session.hpp"
#include "html/parser.hpp"
#include "net/pump.hpp"
#include "net/tcp.hpp"
#include "oracles/net.hpp"

namespace sww::core {
namespace {

ContentStore GoldfishStore() {
  ContentStore store;
  EXPECT_TRUE(store.AddPage("/", MakeGoldfishPage()).ok());
  return store;
}

TEST(Session, GenerativeModeDeliversPromptsOnly) {
  ContentStore store = GoldfishStore();
  auto session = LocalSession::Start(&store, {});
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session.value()->client().NegotiatedGenerative());
  EXPECT_TRUE(session.value()->server().ServingGenerative());

  auto fetch = session.value()->FetchPage("/");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().mode, "generative");
  EXPECT_EQ(fetch.value().generated_items, 1u);
  // The wire carried only the page with its prompt — no image bytes.
  EXPECT_LT(fetch.value().page_bytes, 1000u);
  EXPECT_EQ(fetch.value().asset_bytes, 0u);
  // The client materialized the image locally.
  ASSERT_EQ(fetch.value().files.size(), 1u);
  EXPECT_GT(fetch.value().files.begin()->second.size(), 100000u);  // 512² PPM
  // Client-side generation cost is the Table 2 medium-image laptop cost.
  EXPECT_NEAR(fetch.value().generation_seconds, 19.0, 1.5);
  // Figure 1 "after": the div now points at the generated file.
  EXPECT_NE(fetch.value().final_html.find("generated/goldfish.ppm"),
            std::string::npos);
}

TEST(Session, NaiveClientGetsServerSideGeneration) {
  // §6.2: "When the client does not support generative content, the server
  // uses the prompt to generate the content before sending it."
  ContentStore store = GoldfishStore();
  LocalSession::Options options;
  options.client.advertised_ability = http2::kGenAbilityNone;
  auto session = LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session.value()->client().NegotiatedGenerative());

  auto fetch = session.value()->FetchPage("/");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().mode, "traditional");
  EXPECT_EQ(fetch.value().generated_items, 0u);
  // The image travelled over the wire this time.
  EXPECT_GT(fetch.value().asset_bytes, 100000u);
  EXPECT_EQ(fetch.value().generation_seconds, 0.0);
  // Server paid the generation cost instead (workstation profile).
  EXPECT_GT(session.value()->server().stats().generation_seconds, 0.0);
  EXPECT_EQ(session.value()->server().stats().pages_served_traditional, 1u);
}

TEST(Session, NaiveServerFallsBackToo) {
  ContentStore store = GoldfishStore();
  LocalSession::Options options;
  options.server.advertised_ability = http2::kGenAbilityNone;
  auto session = LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok());
  auto fetch = session.value()->FetchPage("/");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().mode, "traditional");
}

TEST(Session, SameContentBothModes) {
  // Determinism across serving modes: the client-generated image equals
  // the server-generated one (same prompt, same seed derivation).
  ContentStore store = GoldfishStore();
  auto generative = LocalSession::Start(&store, {});
  LocalSession::Options naive;
  naive.client.advertised_ability = http2::kGenAbilityNone;
  auto traditional = LocalSession::Start(&store, naive);
  auto fetch_generative = generative.value()->FetchPage("/");
  auto fetch_traditional = traditional.value()->FetchPage("/");
  ASSERT_TRUE(fetch_generative.ok());
  ASSERT_TRUE(fetch_traditional.ok());
  ASSERT_EQ(fetch_generative.value().files.size(), 1u);
  ASSERT_EQ(fetch_traditional.value().files.size(), 1u);
  EXPECT_EQ(fetch_generative.value().files.begin()->second,
            fetch_traditional.value().files.begin()->second);
}

TEST(Session, PolicyOverrideServesTraditionalDespiteAbility) {
  // §5.1: "A server can choose to serve traditional content even if the
  // client supports generative ability."
  ContentStore store = GoldfishStore();
  LocalSession::Options options;
  options.server.policy = ServePolicy::kAlwaysTraditional;
  auto session = LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session.value()->client().NegotiatedGenerative());
  auto fetch = session.value()->FetchPage("/");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().mode, "traditional");
}

TEST(Session, PolicyCanFlipMidConnection) {
  ContentStore store = GoldfishStore();
  auto session = LocalSession::Start(&store, {});
  ASSERT_TRUE(session.ok());
  auto first = session.value()->FetchPage("/");
  EXPECT_EQ(first.value().mode, "generative");
  // Renewable energy ran out at the edge:
  session.value()->server().SetPolicy(ServePolicy::kAlwaysTraditional);
  auto second = session.value()->FetchPage("/");
  EXPECT_EQ(second.value().mode, "traditional");
}

TEST(Session, NotFoundAndMethodErrors) {
  ContentStore store = GoldfishStore();
  auto session = LocalSession::Start(&store, {});
  auto missing = session.value()->FetchPage("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().response.status, 404);
}

TEST(Session, TravelBlogFetchesUniqueAssets) {
  // §2.1's full scenario: generated text + stock images + unique photos.
  ContentStore store;
  const TravelBlogPage blog = MakeTravelBlogPage(3, 2);
  ASSERT_TRUE(store.AddPage("/blog", blog.html).ok());
  for (const std::string& path : blog.unique_asset_paths) {
    store.AddAsset(path, util::Bytes(20000, 0x42), "image/x-portable-pixmap");
  }
  auto session = LocalSession::Start(&store, {});
  ASSERT_TRUE(session.ok());
  auto fetch = session.value()->FetchPage("/blog");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().mode, "generative");
  EXPECT_EQ(fetch.value().generated_items, 4u);  // 1 text + 3 stock images
  // 3 generated files + 2 fetched unique photos.
  EXPECT_EQ(fetch.value().files.size(), 5u);
  EXPECT_EQ(fetch.value().asset_bytes, 40000u);
  EXPECT_EQ(session.value()->server().stats().assets_served, 2u);
}

TEST(Session, LandscapePageReproducesFig2Compression) {
  // Figure 2 economics end-to-end: 49 landscape prompts over the wire
  // instead of ~1.4 MB of thumbnails.
  ContentStore store;
  const LandscapePage page = MakeLandscapeSearchPage(49);
  ASSERT_TRUE(store.AddPage("/landscape", page.html).ok());
  LocalSession::Options options;
  options.client.generator.inference_steps = 4;  // keep the test quick
  auto session = LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok());
  auto fetch = session.value()->FetchPage("/landscape");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().generated_items, 49u);
  const double traditional_bytes =
      static_cast<double>(page.traditional_image_bytes);
  const double prompt_bytes = static_cast<double>(page.total_metadata_bytes);
  EXPECT_GT(traditional_bytes / prompt_bytes, 50.0);
  EXPECT_EQ(fetch.value().files.size(), 49u);
}

TEST(Session, RendererShowsGeneratedMedia) {
  ContentStore store = GoldfishStore();
  auto session = LocalSession::Start(&store, {});
  auto fetch = session.value()->FetchPage("/");
  ASSERT_TRUE(fetch.ok());
  auto doc = html::ParseDocument(fetch.value().final_html);
  ASSERT_TRUE(doc.ok());
  PageRenderer renderer;
  const std::string text = renderer.RenderToText(*doc.value());
  EXPECT_NE(text.find("Meet the goldfish"), std::string::npos);
  EXPECT_NE(text.find("[image 512x512"), std::string::npos);
  EXPECT_NE(text.find("goldfish.ppm"), std::string::npos);
}

TEST(Session, WireStatsShowSettingsExchange) {
  ContentStore store = GoldfishStore();
  auto session = LocalSession::Start(&store, {});
  const auto& frames =
      session.value()->client().connection().wire_stats().frames_sent;
  EXPECT_GE(frames[http2::FrameType::kSettings], 2u);  // SETTINGS + ACK
}

TEST(Session, ServerByteTotalsEqualEntityBytesClientReceived) {
  // Bodies far above the 64 kB connection window leave the server's
  // entity totals ahead of the bytes framed when SendResponse returns; the
  // property that holds is the exact total once every fetch completed.
  ContentStore store;
  std::string html = "<html><body><p>";
  while (html.size() < 200000) html += "every word of this page is sent ";
  html += "</p></body></html>";
  ASSERT_TRUE(store.AddPage("/big", html).ok());
  util::Bytes asset(300000);
  for (std::size_t i = 0; i < asset.size(); ++i) {
    asset[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  store.AddAsset("/big.ppm", asset, "image/x-portable-pixmap");
  for (const bool compress : {false, true}) {
    LocalSession::Options options;
    options.client.accept_compression = compress;
    auto session = LocalSession::Start(&store, options);
    ASSERT_TRUE(session.ok());
    std::uint64_t received = 0;
    for (const char* path : {"/big", "/big.ppm", "/big"}) {
      auto response = session.value()->client().FetchRaw(path, session.value()->Pump());
      ASSERT_TRUE(response.ok()) << path;
      ASSERT_EQ(response.value().status, 200) << path;
      received += response.value().wire_body_bytes;
    }
    EXPECT_GT(received, 2u * 65535u);
    const GenerativeServer::Stats& stats = session.value()->server().stats();
    EXPECT_EQ(stats.page_bytes_sent + stats.asset_bytes_sent, received)
        << "compress=" << compress;
  }
}

TEST(Session, StreamResetFailsFetchWithTheRfcCode) {
  ContentStore store = GoldfishStore();
  auto session = LocalSession::Start(&store, {});
  ASSERT_TRUE(session.ok());
  http2::Connection& client = session.value()->client().connection();
  http2::Connection& server = session.value()->server().connection();
  // A server that refuses every request it receives.
  auto refusing_pump = [&]() -> util::Status {
    if (client.HasOutput()) {
      if (util::Status status = server.Receive(client.OutputView()); !status.ok()) {
        return status;
      }
      client.ClearOutput();
    }
    for (const auto& event : server.TakeEvents()) {
      if (event.type == http2::Connection::Event::Type::kMessageComplete) {
        if (util::Status status =
                server.ResetStream(event.stream_id, http2::ErrorCode::kRefusedStream);
            !status.ok()) {
          return status;
        }
      }
    }
    if (server.HasOutput()) {
      if (util::Status status = client.Receive(server.OutputView()); !status.ok()) {
        return status;
      }
      server.ClearOutput();
    }
    return util::Status::Ok();
  };
  auto refused = session.value()->client().FetchRaw("/", refusing_pump);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, util::ErrorCode::kClosed);
  EXPECT_NE(refused.error().message.find("REFUSED_STREAM"), std::string::npos)
      << refused.error().message;
  EXPECT_EQ(client.FindStream(1), nullptr);
  EXPECT_EQ(client.active_stream_count(), 0u);
  // The connection survives a stream reset: the next fetch succeeds.
  auto next = session.value()->client().FetchRaw("/", session.value()->Pump());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().status, 200);
}

TEST(Session, FullFlowOverLoopbackTcp) {
  // The same endpoints over real sockets: client thread + server thread.
  ContentStore store = GoldfishStore();
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  std::thread server_thread([&] {
    auto transport = oracles::AcceptWithin(*listener.value(), 5000);
    ASSERT_TRUE(transport.ok());
    auto server = GenerativeServer::Create(&store, {});
    ASSERT_TRUE(server.ok());
    server.value()->StartHandshake();
    // Pump until the client closes or 5s elapse.
    for (int i = 0; i < 5000; ++i) {
      auto pumped = net::PumpOnce(server.value()->connection(),
                                  *transport.value());
      if (!pumped.ok()) break;
      ASSERT_TRUE(server.value()->ProcessEvents().ok());
      if (pumped.value().peer_closed) break;
      if (!pumped.value().made_progress) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  auto transport = net::TcpConnect(port);
  ASSERT_TRUE(transport.ok());
  auto client = GenerativeClient::Create({});
  ASSERT_TRUE(client.ok());
  client.value()->StartHandshake();
  auto pump = [&]() -> util::Status {
    auto pumped = net::PumpOnce(client.value()->connection(), *transport.value());
    if (!pumped.ok()) return pumped.error();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return util::Status::Ok();
  };
  auto fetch = client.value()->FetchPage("/", pump);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().mode, "generative");
  EXPECT_EQ(fetch.value().generated_items, 1u);
  transport.value()->Close();
  server_thread.join();
}

}  // namespace
}  // namespace sww::core
