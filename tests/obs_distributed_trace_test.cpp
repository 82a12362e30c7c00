// obs_distributed_trace_test — the acceptance test for cross-process trace
// propagation and the wire tap:
//   * a client↔server fetch under a ManualClock yields ONE trace tree —
//     server.request (and the edge spans) inherit the client's trace id
//     through the sww-trace header, with correct parent links;
//   * the flight recorder's frame log matches the http2.frames_sent /
//     frames_received counters exactly, including the SETTINGS exchange
//     carrying SETTINGS_GEN_ABILITY.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cdn/catalog.hpp"
#include "cdn/edge.hpp"
#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "genai/model_specs.hpp"
#include "obs/clock.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sww {
namespace {

class ObsDistributedTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Default().SetClock(&clock_);
    obs::Tracer::Default().SetEnabled(true);
    obs::Tracer::Default().Clear();
    obs::Registry::Default().Reset();
    obs::FlightRecorder::Default().Clear();
  }
  void TearDown() override {
    obs::Tracer::Default().Clear();
    obs::Tracer::Default().SetClock(nullptr);
    obs::Registry::Default().Reset();
    obs::FlightRecorder::Default().Clear();
  }

  static const obs::Span* FindSpan(const std::vector<obs::Span>& spans,
                                   std::string_view name) {
    auto it = std::find_if(spans.begin(), spans.end(),
                           [&](const obs::Span& s) { return s.name == name; });
    return it == spans.end() ? nullptr : &*it;
  }

  obs::ManualClock clock_;
};

TEST(TraceHeader, FormatParseRoundTrip) {
  const obs::SpanContext context{0x1234abcd5678ef01ull, 0xdeadbeef00c0ffeeull};
  const std::string header = obs::FormatTraceHeader(context);
  // W3C-traceparent-like: 00-<32 hex trace>-<16 hex span>-01.
  ASSERT_EQ(header.size(), 55u);
  EXPECT_EQ(header.substr(0, 3), "00-");
  EXPECT_EQ(header.substr(2 + 1, 16), "0000000000000000");  // upper 64 bits
  auto parsed = obs::ParseTraceHeader(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, context.trace_id);
  EXPECT_EQ(parsed->span_id, context.span_id);
}

TEST(TraceHeader, RejectsMalformedInput) {
  EXPECT_FALSE(obs::ParseTraceHeader("").has_value());
  EXPECT_FALSE(obs::ParseTraceHeader("not-a-trace-header").has_value());
  EXPECT_FALSE(obs::ParseTraceHeader(
                   "00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-0000000000000001-01")
                   .has_value());
  // Invalid (zero) context formats to "" and "" parses to nothing.
  EXPECT_EQ(obs::FormatTraceHeader(obs::SpanContext{}), "");
}

TEST_F(ObsDistributedTraceTest, FetchYieldsOneTraceTree) {
  core::ContentStore store;
  ASSERT_TRUE(store.AddPage("/", core::MakeGoldfishPage()).ok());

  core::LocalSession::Options options;
  options.client.wire_tap = &obs::FlightRecorder::Default().GetTap("client");
  options.server.wire_tap = &obs::FlightRecorder::Default().GetTap("server");
  auto session = core::LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok()) << session.error().ToString();
  auto fetch = session.value()->FetchPage("/");
  ASSERT_TRUE(fetch.ok()) << fetch.error().ToString();

  const std::vector<obs::Span> spans = obs::Tracer::Default().FinishedSpans();
  const obs::Span* page = FindSpan(spans, "client.fetch_page");
  const obs::Span* client_fetch = FindSpan(spans, "client.fetch");
  const obs::Span* server_request = FindSpan(spans, "server.request");
  ASSERT_NE(page, nullptr);
  ASSERT_NE(client_fetch, nullptr);
  ASSERT_NE(server_request, nullptr);

  // ONE distributed trace: the server span adopted the client's trace id
  // via the sww-trace header, and its parent is the client.fetch span.
  ASSERT_NE(page->trace_id, 0u);
  EXPECT_EQ(client_fetch->trace_id, page->trace_id);
  EXPECT_EQ(server_request->trace_id, page->trace_id);
  EXPECT_EQ(client_fetch->parent, page->id);
  EXPECT_EQ(server_request->parent, client_fetch->id);

  // Role tracks label the root of each process's subtree.
  EXPECT_EQ(client_fetch->process, "client");
  EXPECT_EQ(server_request->process, "server");

  // The sww-trace header actually crossed the wire: the server's tap saw
  // it on the received request HEADERS.
  bool header_on_wire = false;
  for (const obs::FrameRecord& record :
       obs::FlightRecorder::Default().GetTap("server").Records()) {
    if (record.type_name != "HEADERS" ||
        record.direction != obs::TapDirection::kReceived) {
      continue;
    }
    for (const auto& [name, value] : record.details) {
      if (name == obs::kTraceHeaderName) {
        header_on_wire = true;
        auto context = obs::ParseTraceHeader(value);
        ASSERT_TRUE(context.has_value()) << value;
        EXPECT_EQ(context->trace_id, page->trace_id);
        EXPECT_EQ(context->span_id, client_fetch->id);
      }
    }
  }
  EXPECT_TRUE(header_on_wire) << "sww-trace header missing from the tap";
}

TEST_F(ObsDistributedTraceTest, EdgeSpansJoinTheUserTrace) {
  auto image_model = genai::FindImageModel(genai::kSd3Medium);
  auto text_model = genai::FindTextModel(genai::kDeepseek8b);
  ASSERT_TRUE(image_model.ok() && text_model.ok());
  cdn::CatalogOptions catalog_options;
  catalog_options.item_count = 4;
  const cdn::Catalog catalog = cdn::Catalog::MakeSynthetic(catalog_options);
  cdn::EdgeNode edge(cdn::EdgeMode::kPromptMode, 1 << 20, image_model.value(),
                     text_model.value());

  obs::TraceId user_trace = 0;
  obs::SpanId user_span = 0;
  {
    obs::ScopedSpan user_fetch("client.fetch", "core");
    user_fetch.SetProcess("client");
    const obs::SpanContext context = user_fetch.context();
    user_trace = context.trace_id;
    user_span = context.span_id;
    // Propagate through the wire encoding, as a remote edge would see it.
    auto parsed = obs::ParseTraceHeader(obs::FormatTraceHeader(context));
    ASSERT_TRUE(parsed.has_value());
    edge.ServeRequest(catalog.item(0), *parsed);
  }

  const std::vector<obs::Span> spans = obs::Tracer::Default().FinishedSpans();
  const obs::Span* edge_span = FindSpan(spans, "edge.request");
  const obs::Span* origin_span = FindSpan(spans, "edge.origin_fetch");
  ASSERT_NE(edge_span, nullptr);
  ASSERT_NE(origin_span, nullptr) << "first request must miss";
  ASSERT_NE(user_trace, 0u);
  EXPECT_EQ(edge_span->trace_id, user_trace);
  EXPECT_EQ(edge_span->parent, user_span);
  EXPECT_EQ(origin_span->trace_id, user_trace);
  EXPECT_EQ(origin_span->parent, edge_span->id);
  EXPECT_EQ(edge_span->process, "edge");
  EXPECT_EQ(origin_span->process, "origin");
  // The simulated prompt-mode materialization advanced the manual clock.
  EXPECT_GT(edge_span->DurationSeconds(), 0.0);
}

TEST_F(ObsDistributedTraceTest, FrameLogMatchesWireCounters) {
  core::ContentStore store;
  ASSERT_TRUE(store.AddPage("/", core::MakeGoldfishPage()).ok());

  obs::ConnectionTap& client_tap =
      obs::FlightRecorder::Default().GetTap("client");
  obs::ConnectionTap& server_tap =
      obs::FlightRecorder::Default().GetTap("server");
  core::LocalSession::Options options;
  options.client.wire_tap = &client_tap;
  options.server.wire_tap = &server_tap;
  auto session = core::LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok()) << session.error().ToString();
  ASSERT_TRUE(session.value()->FetchPage("/").ok());

  // The taps saw exactly what the connections counted — every frame, both
  // directions, SETTINGS handshake included.
  const obs::RegistrySnapshot snap = obs::Registry::Default().Snapshot();
  EXPECT_EQ(client_tap.total_sent() + server_tap.total_sent(),
            snap.counters.at("http2.frames_sent"));
  EXPECT_EQ(client_tap.total_received() + server_tap.total_received(),
            snap.counters.at("http2.frames_received"));
  EXPECT_EQ(client_tap.dropped(), 0u);
  EXPECT_EQ(server_tap.dropped(), 0u);

  // Per-connection: the tap agrees with the connection's own wire stats.
  EXPECT_EQ(client_tap.total_sent(),
            session.value()->client().connection().wire_stats().frames_sent.total());

  // The SETTINGS exchange carrying SETTINGS_GEN_ABILITY is in the log,
  // decoded, in both directions.
  int gen_ability_sent = 0, gen_ability_received = 0;
  for (const obs::FrameRecord& record : client_tap.Records()) {
    if (record.type_name != "SETTINGS") continue;
    for (const auto& [name, value] : record.details) {
      if (name == "GEN_ABILITY") {
        EXPECT_EQ(value, "1");  // kGenAbilityFull
        if (record.direction == obs::TapDirection::kSent) ++gen_ability_sent;
        if (record.direction == obs::TapDirection::kReceived) {
          ++gen_ability_received;
        }
      }
    }
  }
  EXPECT_EQ(gen_ability_sent, 1) << "client must advertise GEN_ABILITY";
  EXPECT_EQ(gen_ability_received, 1) << "server's SETTINGS must be tapped";
}

TEST_F(ObsDistributedTraceTest, UntappedConnectionRecordsNothing) {
  core::ContentStore store;
  ASSERT_TRUE(store.AddPage("/", core::MakeGoldfishPage()).ok());
  auto session = core::LocalSession::Start(&store, {});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->FetchPage("/").ok());
  EXPECT_EQ(session.value()->client().connection().wire_tap(), nullptr);
  for (const obs::ConnectionTap* tap :
       obs::FlightRecorder::Default().taps()) {
    EXPECT_EQ(tap->total_recorded(), 0u) << tap->label();
  }
}

}  // namespace
}  // namespace sww
