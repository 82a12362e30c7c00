// Edge-case and property sweeps across the protocol and model layers:
// behaviours with thinner coverage in the per-module suites.
#include <gtest/gtest.h>

#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "energy/device.hpp"
#include "hpack/hpack.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"
#include "http2/connection.hpp"
#include "net/pump.hpp"
#include "oracles/http2.hpp"
#include "video/streaming.hpp"

namespace sww {
namespace {

// --- http2 edge cases -----------------------------------------------------------

http2::Connection::Options WithAbility() {
  http2::Connection::Options options;
  options.local_settings.set_gen_ability(http2::kGenAbilityFull);
  return options;
}

struct Pair {
  http2::Connection client{http2::Connection::Role::kClient, WithAbility()};
  http2::Connection server{http2::Connection::Role::kServer, WithAbility()};
  void Handshake() {
    client.StartHandshake();
    server.StartHandshake();
    net::DirectLinkExchange(client, server);
  }
};

TEST(Http2Edge, InitialWindowSizeChangeAdjustsOpenStreams) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/", false}};
  ASSERT_TRUE(pair.client.SubmitRequest(request, {}).ok());
  net::DirectLinkExchange(pair.client, pair.server);

  // Server queues a body larger than the default 64 kB stream window
  // minus what the shrunken window will allow.
  const http2::Stream* before = pair.server.FindStream(1);
  ASSERT_NE(before, nullptr);

  // Client shrinks INITIAL_WINDOW_SIZE mid-connection (RFC 9113 §6.9.2:
  // the delta applies to all existing streams' send windows).
  http2::Settings updated = pair.client.local_settings();
  updated.set_initial_window_size(1000);
  pair.client.UpdateLocalSettings(updated);
  net::DirectLinkExchange(pair.client, pair.server);

  ASSERT_TRUE(pair.server
                  .SubmitHeaders(1, {{":status", "200", false}}, false)
                  .ok());
  util::Bytes body(50000, 0x11);
  ASSERT_TRUE(pair.server.SubmitData(1, body, true).ok());
  // Without WINDOW_UPDATEs beyond the auto-replenish, data still arrives
  // in full: the client replenishes as it consumes.
  net::DirectLinkExchange(pair.client, pair.server, 512);
  const http2::Stream* stream = pair.client.FindStream(1);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->body.size(), body.size());
}

TEST(Http2Edge, PrioritySelfDependencyGetsStreamReset) {
  Pair pair;
  pair.Handshake();
  hpack::HeaderList request = {{":method", "GET", false},
                               {":scheme", "https", false},
                               {":path", "/", false}};
  ASSERT_TRUE(pair.client.SubmitRequest(request, {}).ok());
  net::DirectLinkExchange(pair.client, pair.server);
  // PRIORITY frame depending on itself → stream error, not connection death.
  http2::PriorityPayload self{false, 1, 10};
  ASSERT_TRUE(pair.server
                  .Receive(oracles::SerializeFrame(
                      oracles::MakePriorityFrame(1, self)))
                  .ok());
  EXPECT_FALSE(pair.server.dead());
  net::DirectLinkExchange(pair.client, pair.server);
  bool reset = false;
  for (const auto& event : pair.client.TakeEvents()) {
    if (event.type == http2::Connection::Event::Type::kStreamReset) reset = true;
  }
  EXPECT_TRUE(reset);
}

TEST(Http2Edge, UnknownFrameTypeIgnored) {
  Pair pair;
  pair.Handshake();
  http2::Frame unknown;
  unknown.header.type = static_cast<http2::FrameType>(0x0c);
  unknown.header.stream_id = 0;
  unknown.payload = {1, 2, 3};
  EXPECT_TRUE(pair.server.Receive(oracles::SerializeFrame(unknown)).ok());
  EXPECT_FALSE(pair.server.dead());
}

TEST(Http2Edge, WindowUpdateOverflowIsFlowControlError) {
  Pair pair;
  pair.Handshake();
  // Two 2^30 connection-level increments exceed 2^31-1 (the default
  // 65,535 window leaves room for exactly one).
  const util::Bytes update = oracles::SerializeFrame(
      oracles::MakeWindowUpdateFrame(0, 0x40000000u));
  ASSERT_TRUE(pair.server.Receive(update).ok());
  auto status = pair.server.Receive(update);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(pair.server.dead());
}

TEST(Http2Edge, SettingsAreStickyAcrossReAdvertisement) {
  Pair pair;
  pair.Handshake();
  // Re-advertising an unrelated setting must not reset gen_ability on the
  // peer (settings are sticky; only sent entries change).
  http2::Settings updated = pair.server.local_settings();
  updated.set_max_concurrent_streams(55);
  pair.server.UpdateLocalSettings(updated);
  net::DirectLinkExchange(pair.client, pair.server);
  EXPECT_TRUE(pair.client.generative_mode());
  EXPECT_EQ(pair.client.remote_settings().max_concurrent_streams(), 55u);
}

// --- hpack sweep -------------------------------------------------------------------

class HpackTableSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HpackTableSizes, RoundTripUnderTablePressure) {
  hpack::Encoder encoder(GetParam());
  hpack::Decoder decoder(4096);
  encoder.SetMaxTableSize(GetParam());
  for (int round = 0; round < 20; ++round) {
    hpack::HeaderList headers = {
        {":method", "GET", false},
        {":path", "/page/" + std::to_string(round), false},
        {"x-round", std::to_string(round), false},
        {"x-repeat", "constant-value", false},
    };
    auto decoded = decoder.DecodeBlock(encoder.EncodeBlock(headers));
    ASSERT_TRUE(decoded.ok()) << "round " << round;
    ASSERT_EQ(decoded.value().size(), headers.size());
    for (std::size_t i = 0; i < headers.size(); ++i) {
      EXPECT_EQ(decoded.value()[i].name, headers[i].name);
      EXPECT_EQ(decoded.value()[i].value, headers[i].value);
    }
  }
  EXPECT_LE(encoder.table().size_bytes(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, HpackTableSizes,
                         ::testing::Values(0, 64, 256, 4096));

// --- energy monotonicity properties ---------------------------------------------------

class PixelSweep : public ::testing::TestWithParam<int> {};

TEST_P(PixelSweep, TimeAndEnergyIncreaseWithSize) {
  const auto sd3 = genai::FindImageModel(genai::kSd3Medium).value();
  const int size = GetParam();
  const int larger = size + 128;
  for (const energy::DeviceProfile* device :
       {&energy::Laptop(), &energy::Workstation()}) {
    EXPECT_LT(energy::ImageGenerationSeconds(*device, sd3, 15, size, size),
              energy::ImageGenerationSeconds(*device, sd3, 15, larger, larger));
    EXPECT_LT(energy::ImageGenerationEnergyWh(*device, sd3, 15, size, size),
              energy::ImageGenerationEnergyWh(*device, sd3, 15, larger, larger));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PixelSweep,
                         ::testing::Values(128, 256, 512, 896));

TEST(EnergyEdge, UpscaleIsFarCheaperThanGeneration) {
  const auto sd3 = genai::FindImageModel(genai::kSd3Medium).value();
  for (const energy::DeviceProfile* device :
       {&energy::Laptop(), &energy::Workstation()}) {
    const double generate =
        energy::ImageGenerationSeconds(*device, sd3, 15, 1024, 1024);
    const double upscale = energy::UpscaleSeconds(*device, 1024, 1024);
    EXPECT_LT(upscale, 1.0);        // §2.2: sub-second
    EXPECT_LT(upscale * 10, generate);
  }
}

// --- video monotonicity ------------------------------------------------------------------

TEST(VideoEdge, RatesMonotoneInFpsAndResolution) {
  for (video::Resolution resolution :
       {video::Resolution::k480p, video::Resolution::kHD,
        video::Resolution::k4K}) {
    EXPECT_LT(video::GigabytesPerHour(resolution, 30),
              video::GigabytesPerHour(resolution, 60));
  }
  for (int fps : {30, 60}) {
    EXPECT_LT(video::GigabytesPerHour(video::Resolution::k480p, fps),
              video::GigabytesPerHour(video::Resolution::kHD, fps));
    EXPECT_LT(video::GigabytesPerHour(video::Resolution::kHD, fps),
              video::GigabytesPerHour(video::Resolution::k4K, fps));
  }
}

// --- food menu workload ---------------------------------------------------------------------

TEST(FoodMenu, AlmostEverythingIsGeneratable) {
  const core::FoodMenuPage menu = core::MakeFoodMenuPage(8);
  auto doc = html::ParseDocument(menu.html);
  ASSERT_TRUE(doc.ok());
  auto extraction = html::ExtractGeneratedContent(*doc.value());
  EXPECT_TRUE(extraction.errors.empty());
  // 8 dishes × (photo + blurb) + 1 stock banner.
  EXPECT_EQ(extraction.specs.size(), 17u);
  // No conventional media remain.
  EXPECT_TRUE(doc.value()->FindByTag("img").empty());
}

TEST(FoodMenu, ServesAndRegeneratesEndToEnd) {
  core::ContentStore store;
  const core::FoodMenuPage menu = core::MakeFoodMenuPage(4);
  ASSERT_TRUE(store.AddPage("/menu", menu.html).ok());
  core::LocalSession::Options options;
  options.client.generator.inference_steps = 4;
  auto session = core::LocalSession::Start(&store, options);
  auto fetch = session.value()->FetchPage("/menu");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().mode, "generative");
  EXPECT_EQ(fetch.value().generated_items, 9u);  // 4×2 + banner
  // Blurbs rendered as text.
  EXPECT_NE(fetch.value().final_html.find("<p>"), std::string::npos);
  // The page is small on the wire despite 5 images + 4 blurbs.
  EXPECT_LT(fetch.value().page_bytes, 6000u);
}

TEST(FoodMenu, DeterministicAcrossClients) {
  // The déjà-vu property, literally: two different users regenerate the
  // same menu bytes from the same prompts.
  core::ContentStore store;
  ASSERT_TRUE(store.AddPage("/menu", core::MakeFoodMenuPage(3).html).ok());
  auto a = core::LocalSession::Start(&store, {});
  auto b = core::LocalSession::Start(&store, {});
  auto fetch_a = a.value()->FetchPage("/menu");
  auto fetch_b = b.value()->FetchPage("/menu");
  ASSERT_TRUE(fetch_a.ok());
  ASSERT_TRUE(fetch_b.ok());
  EXPECT_EQ(fetch_a.value().files, fetch_b.value().files);
  EXPECT_EQ(fetch_a.value().final_html, fetch_b.value().final_html);
}

}  // namespace
}  // namespace sww
