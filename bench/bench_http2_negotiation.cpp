// http2_negotiation — measures the protocol cost of the paper's §3
// modification and reproduces §6.2's functionality matrix:
//   * wire overhead of advertising SETTINGS_GEN_ABILITY (6 bytes/endpoint),
//   * the ablation from DESIGN.md §6.1: SETTINGS-based negotiation vs a
//     hypothetical per-request header ("x-sww-gen-ability: 1"),
//   * the four client/server support combinations and the serving mode
//     each one lands in,
//   * stream-record hygiene under a rapid-reset flood: 10,000 HEADERS +
//     RST_STREAM pairs must leave no stream record behind, and every
//     stream opened must be observed once into http2.stream_seconds.
// Emits telemetry artifacts under bench_out/ (see docs/observability.md):
//   bench_out/bench_http2_negotiation.trace.json   — chrome://tracing
//   bench_out/bench_http2_negotiation.metrics.jsonl — registry snapshot
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "hpack/hpack.hpp"
#include "http2/connection.hpp"
#include "net/pump.hpp"
#include "obs/bench.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace sww;

/// Bytes of the initial SETTINGS exchange for an endpoint pair, with and
/// without the GEN_ABILITY entry.
std::uint64_t HandshakeBytes(bool advertise) {
  http2::Connection::Options options;
  options.local_settings.set_enable_push(false);
  if (advertise) {
    options.local_settings.set_gen_ability(http2::kGenAbilityFull);
  }
  http2::Connection client(http2::Connection::Role::kClient, options);
  http2::Connection server(http2::Connection::Role::kServer, options);
  client.StartHandshake();
  server.StartHandshake();
  net::DirectLinkExchange(client, server);
  return client.wire_stats().bytes_sent + server.wire_stats().bytes_sent;
}

/// Ids with a stream record left on either end after a flood of `pairs`
/// HEADERS (without END_STREAM) + RST_STREAM pairs from the client.
std::uint64_t StreamsRetainedAfterRapidReset(std::uint32_t pairs) {
  http2::Connection::Options options;
  options.local_settings.set_enable_push(false);
  http2::Connection client(http2::Connection::Role::kClient, options);
  http2::Connection server(http2::Connection::Role::kServer, options);
  client.StartHandshake();
  server.StartHandshake();
  net::DirectLinkExchange(client, server);
  const hpack::HeaderList request = {{":method", "GET", false},
                                     {":scheme", "https", false},
                                     {":path", "/", false},
                                     {":authority", "sww.local", false}};
  constexpr std::uint32_t kBatch = 100;
  std::uint32_t last_id = 0;
  for (std::uint32_t sent = 0; sent < pairs; sent += kBatch) {
    for (std::uint32_t i = 0; i < kBatch && sent + i < pairs; ++i) {
      auto stream_id = client.SubmitRequest(request, {}, false);
      if (!stream_id.ok()) return pairs;
      last_id = stream_id.value();
      (void)client.ResetStream(last_id, http2::ErrorCode::kCancel);
    }
    net::DirectLinkExchange(client, server);
    (void)client.TakeEvents();
    (void)server.TakeEvents();
  }
  std::uint64_t retained = 0;
  for (std::uint32_t id = 1; id <= last_id; id += 2) {
    retained += (client.FindStream(id) != nullptr) + (server.FindStream(id) != nullptr);
  }
  return retained;
}

void http2_negotiation(sww::obs::bench::State& state) {
  // Deterministic telemetry: a manual clock makes span durations reflect
  // simulated generation cost, so trace artifacts are identical across runs.
  static obs::ManualClock manual_clock;
  obs::Tracer::Default().SetClock(&manual_clock);
  obs::Tracer::Default().SetEnabled(true);

  std::printf("HTTP/2 negotiation cost and fallback matrix (3, 6.2)\n\n");

  // --- wire overhead of the extension ---------------------------------------
  const std::uint64_t base = HandshakeBytes(false);
  const std::uint64_t with_extension = HandshakeBytes(true);
  std::printf("Connection setup bytes (preface + SETTINGS + ACKs):\n");
  std::printf("  without GEN_ABILITY: %4llu B\n",
              static_cast<unsigned long long>(base));
  std::printf("  with    GEN_ABILITY: %4llu B  (+%llu B total, 6 B per "
              "advertising endpoint)\n\n",
              static_cast<unsigned long long>(with_extension),
              static_cast<unsigned long long>(with_extension - base));
  state.Modeled("handshake_bytes_base", static_cast<double>(base));
  state.Modeled("handshake_bytes_with_gen_ability",
                static_cast<double>(with_extension));

  // --- ablation: SETTINGS vs per-request header --------------------------------
  // A header-based design would re-send the capability on every request.
  hpack::Encoder encoder;
  hpack::HeaderList with_header = {{":method", "GET", false},
                                   {":scheme", "https", false},
                                   {":path", "/page", false},
                                   {":authority", "sww.local", false},
                                   {"x-sww-gen-ability", "1", false}};
  hpack::HeaderList without_header(with_header.begin(), with_header.end() - 1);
  const std::size_t first_with = encoder.EncodeBlock(with_header).size();
  const std::size_t later_with = encoder.EncodeBlock(with_header).size();
  hpack::Encoder encoder2;
  const std::size_t first_without = encoder2.EncodeBlock(without_header).size();
  const std::size_t later_without = encoder2.EncodeBlock(without_header).size();
  std::printf("Ablation - per-request header instead of SETTINGS:\n");
  std::printf("  request headers: first %zu B vs %zu B; subsequent %zu B vs "
              "%zu B (HPACK-indexed)\n",
              first_with, first_without, later_with, later_without);
  std::printf("  SETTINGS: 6 B once per connection; header: +%zu B on the "
              "first request and +%zu B on every later request\n\n",
              first_with - first_without, later_with - later_without);
  state.Modeled("header_ablation_first_extra_bytes",
                static_cast<double>(first_with - first_without));
  state.Modeled("header_ablation_later_extra_bytes",
                static_cast<double>(later_with - later_without));

  // --- §6.2 functionality matrix -----------------------------------------------
  core::ContentStore store;
  (void)store.AddPage("/", core::MakeGoldfishPage());

  struct Scenario {
    const char* label;
    const char* key;
    std::uint32_t client_ability;
    std::uint32_t server_ability;
  };
  const Scenario scenarios[] = {
      {"client+server support", "both", http2::kGenAbilityFull,
       http2::kGenAbilityFull},
      {"client only", "client_only", http2::kGenAbilityFull,
       http2::kGenAbilityNone},
      {"server only", "server_only", http2::kGenAbilityNone,
       http2::kGenAbilityFull},
      {"neither", "neither", http2::kGenAbilityNone, http2::kGenAbilityNone},
      // §2.2/§3: "the 32-bit field can be used to negotiate more complex
      // support options, such as upscale-only."
      {"upscale-only client", "upscale_only", http2::kGenAbilityUpscaleOnly,
       http2::kGenAbilityFull | http2::kGenAbilityUpscaleOnly},
  };
  std::printf("Functionality matrix (one goldfish page fetch):\n");
  std::printf("%-24s %-12s %12s %12s %14s\n", "scenario", "mode", "page[B]",
              "assets[B]", "client gen[s]");
  for (const Scenario& scenario : scenarios) {
    core::LocalSession::Options options;
    options.client.advertised_ability = scenario.client_ability;
    options.server.advertised_ability = scenario.server_ability;
    auto session = core::LocalSession::Start(&store, options);
    state.Check(session.ok(), std::string("session: ") + scenario.label);
    if (!session.ok()) return;
    auto fetch = session.value()->FetchPage("/");
    state.Check(fetch.ok(), std::string("fetch: ") + scenario.label);
    if (!fetch.ok()) return;
    std::printf("%-24s %-12s %12llu %12llu %14.1f\n", scenario.label,
                fetch.value().mode.empty() ? "-" : fetch.value().mode.c_str(),
                static_cast<unsigned long long>(fetch.value().page_bytes),
                static_cast<unsigned long long>(fetch.value().asset_bytes),
                fetch.value().generation_seconds);
    const std::string prefix = std::string(scenario.key) + ".";
    state.ModeledText(prefix + "mode",
                      fetch.value().mode.empty() ? "-" : fetch.value().mode);
    state.Modeled(prefix + "page_bytes",
                  static_cast<double>(fetch.value().page_bytes));
    state.Modeled(prefix + "asset_bytes",
                  static_cast<double>(fetch.value().asset_bytes));
    state.Modeled(prefix + "client_generation_seconds",
                  fetch.value().generation_seconds);
  }
  std::printf("\nPaper: \"Except for the first scenario, in all other cases "
              "the communication\ndefaulted to standard HTTP/2.\"\n");

  // --- rapid reset: stream records are reaped --------------------------------
  // Tracing stays off for the flood so the trace artifact holds only the
  // matrix above; the registry deltas still see every stream.
  constexpr std::uint32_t kResetPairs = 10000;
  obs::Registry& registry = obs::Registry::Default();
  const obs::Counter& opened = registry.GetCounter("http2.streams_opened");
  const obs::Histogram& stream_seconds =
      registry.GetHistogram("http2.stream_seconds");
  const std::uint64_t opened_before = opened.value();
  const std::uint64_t observed_before = stream_seconds.Snapshot().count;
  obs::Tracer::Default().SetEnabled(false);
  const std::uint64_t retained = StreamsRetainedAfterRapidReset(kResetPairs);
  obs::Tracer::Default().SetEnabled(true);
  const std::uint64_t opened_delta = opened.value() - opened_before;
  const std::uint64_t observed_delta =
      stream_seconds.Snapshot().count - observed_before;
  std::printf("\nRapid reset (%u HEADERS + RST_STREAM pairs): %llu stream "
              "records retained; %llu streams opened, %llu observed in "
              "http2.stream_seconds\n",
              kResetPairs, static_cast<unsigned long long>(retained),
              static_cast<unsigned long long>(opened_delta),
              static_cast<unsigned long long>(observed_delta));
  state.Modeled("rapid_reset.streams_retained", static_cast<double>(retained));
  state.Modeled("rapid_reset.streams_opened", static_cast<double>(opened_delta));
  state.Modeled("rapid_reset.stream_seconds_count",
                static_cast<double>(observed_delta));
  state.Check(retained == 0, "rapid reset leaves no stream records");
  state.Check(observed_delta == opened_delta,
              "every opened stream is observed once in http2.stream_seconds");

  // --- telemetry artifacts -----------------------------------------------------
  // Side-products land under bench_out/ (gitignored), never in the tree.
  std::error_code fs_error;
  std::filesystem::create_directories("bench_out", fs_error);
  if (fs_error) {
    state.Check(false, "create bench_out/: " + fs_error.message());
    return;
  }
  const std::string trace_path = "bench_out/bench_http2_negotiation.trace.json";
  const std::string metrics_path =
      "bench_out/bench_http2_negotiation.metrics.jsonl";
  if (auto status = obs::WriteTraceFile(
          trace_path, obs::Tracer::Default().FinishedSpans(),
          "bench_http2_negotiation");
      !status.ok()) {
    state.Check(false, "write trace: " + status.ToString());
    return;
  }
  if (auto status = obs::WriteMetricsFile(
          metrics_path, obs::Registry::Default().Snapshot());
      !status.ok()) {
    state.Check(false, "write metrics: " + status.ToString());
    return;
  }
  std::printf("\nTelemetry: %s (%zu spans; open in chrome://tracing), %s\n",
              trace_path.c_str(), obs::Tracer::Default().finished_count(),
              metrics_path.c_str());
}
SWW_BENCHMARK(http2_negotiation);

}  // namespace
