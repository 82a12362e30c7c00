// wire_fastlane — the PR-5 fast lanes measured side by side with the
// oracles they replaced: perfect-hash static-table lookup vs the linear
// scan, interned dynamic-table lookup vs brute force via At(), and
// arena-based frame serialization vs SerializeFrame's allocate-and-copy.
//
// Identity between fast lane and oracle is a modeled metric (gated
// exactly at 0 mismatches), as is the steady-state allocation count of
// the output arena (gated exactly at 0).  Wall medians carry the
// before/after story.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "hpack/dynamic_table.hpp"
#include "hpack/hpack.hpp"
#include "hpack/static_table.hpp"
#include "http2/connection.hpp"
#include "http2/frame.hpp"
#include "net/pump.hpp"
#include "net/tcp.hpp"
#include "obs/bench.hpp"
#include "obs/registry.hpp"
#include "oracles/hpack.hpp"
#include "oracles/http2.hpp"
#include "oracles/net.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace sww;
using util::Bytes;
using util::BytesView;

void wire_fastlane(sww::obs::bench::State& state) {
  std::printf("wire-path fast lanes vs retired oracles\n\n");
  std::size_t sink = 0;

  // --- static table: perfect hash vs linear scan -------------------------
  // Probe set: every RFC entry (hits) plus mutated names/values (misses) —
  // the mix an encoder actually sees.
  std::vector<std::pair<std::string, std::string>> probes;
  for (std::size_t i = 1; i <= hpack::kStaticTableSize; ++i) {
    auto entry = hpack::StaticTableEntry(i);
    probes.emplace_back(std::string(entry.value().name),
                        std::string(entry.value().value));
    probes.emplace_back(std::string(entry.value().name) + "-miss", "v");
  }
  std::size_t lookup_mismatches = 0;
  for (const auto& [name, value] : probes) {
    if (hpack::StaticTableFind(name, value) !=
            oracles::StaticTableFindLinear(name, value) ||
        hpack::StaticTableFindName(name) !=
            oracles::StaticTableFindNameLinear(name)) {
      ++lookup_mismatches;
    }
  }
  state.Modeled("static_lookup_mismatches",
                static_cast<double>(lookup_mismatches));
  state.Time("static_lookup_hash", [&] {
    for (const auto& [name, value] : probes) {
      sink += hpack::StaticTableFind(name, value);
      sink += hpack::StaticTableFindName(name);
    }
  });
  state.Time("static_lookup_linear", [&] {
    for (const auto& [name, value] : probes) {
      sink += oracles::StaticTableFindLinear(name, value);
      sink += oracles::StaticTableFindNameLinear(name);
    }
  });

  // --- dynamic table: interned index on a warm table ----------------------
  hpack::DynamicTable table(16384);
  util::Rng rng(0x53575722u);
  std::vector<std::pair<std::string, std::string>> fields;
  for (int i = 0; i < 64; ++i) {
    fields.emplace_back("x-header-" + std::to_string(i % 24),
                        "value-" + std::to_string(i));
    table.Insert(fields.back().first, fields.back().second);
  }
  state.Modeled("dynamic_table_entries", static_cast<double>(table.entry_count()));
  state.Time("dynamic_lookup_interned", [&] {
    for (const auto& [name, value] : fields) {
      sink += table.Find(name, value);
      sink += table.FindName(name);
    }
  });

  // --- framing: arena scatter-gather vs allocate-and-copy -----------------
  const Bytes payload(1024, 0x42);
  http2::FrameRef ref;
  ref.header.type = http2::FrameType::kData;
  ref.header.stream_id = 1;
  ref.payload = BytesView(payload);
  util::BytesArena arena;
  // Byte identity with the copying serializer, gated exactly.
  {
    http2::Frame frame;
    frame.header = ref.header;
    frame.payload = payload;
    const Bytes expected = oracles::SerializeFrame(frame);
    http2::AppendFrame(ref, arena);
    const BytesView got = arena.View();
    const bool identical =
        got.size() == expected.size() &&
        std::equal(got.begin(), got.end(), expected.begin());
    state.Modeled("arena_frame_byte_mismatches", identical ? 0.0 : 1.0);
    state.Modeled("data_frame_1024_wire_bytes", static_cast<double>(got.size()));
    arena.Clear();
  }
  state.Time("frame_serialize_arena", [&] {
    arena.Clear();
    for (int i = 0; i < 16; ++i) http2::AppendFrame(ref, arena);
    sink += arena.size();
  });
  state.Time("frame_serialize_copy", [&] {
    std::size_t bytes = 0;
    for (int i = 0; i < 16; ++i) {
      http2::Frame frame;
      frame.header = ref.header;
      frame.payload = payload;
      bytes += oracles::SerializeFrame(frame).size();
    }
    sink += bytes;
  });
  // Steady state: the warmed arena must not allocate again — gated at 0.
  {
    const std::uint64_t warm = arena.allocations();
    for (int i = 0; i < 64; ++i) {
      arena.Clear();
      for (int j = 0; j < 16; ++j) http2::AppendFrame(ref, arena);
    }
    state.Modeled("arena_steady_state_allocations",
                  static_cast<double>(arena.allocations() - warm));
  }

  // --- end to end: a warmed connection pair stops allocating output ------
  {
    http2::Connection::Options options;
    options.local_settings.set_enable_push(false);
    http2::Connection client(http2::Connection::Role::kClient, options);
    http2::Connection server(http2::Connection::Role::kServer, options);
    client.StartHandshake();
    server.StartHandshake();
    net::DirectLinkExchange(client, server);
    const hpack::HeaderList request = {{":method", "GET", false},
                                       {":scheme", "https", false},
                                       {":path", "/fastlane", false},
                                       {":authority", "sww.local", false}};
    const Bytes body(512, 0x51);
    auto round = [&] {
      auto stream_id = client.SubmitRequest(request, {});
      net::DirectLinkExchange(client, server);
      (void)server.SubmitHeaders(stream_id.value(), {{":status", "200", false}},
                                 false);
      (void)server.SubmitData(stream_id.value(), body, true);
      net::DirectLinkExchange(client, server);
      client.ReleaseStream(stream_id.value());
      server.ReleaseStream(stream_id.value());
    };
    for (int i = 0; i < 8; ++i) round();
    const std::uint64_t client_warm = client.output_allocations();
    const std::uint64_t server_warm = server.output_allocations();
    for (int i = 0; i < 32; ++i) round();
    state.Modeled("connection_steady_state_output_allocations",
                  static_cast<double>((client.output_allocations() - client_warm) +
                                      (server.output_allocations() - server_warm)));
    state.Time("request_response_round_trip_arena", [&] {
      round();
      sink += 1;
    });

    // --- telemetry plane: always-on instrumentation stays under 5% --------
    // Per-event costs are measured directly; events per round come from
    // registry deltas over a steady-state window of the deterministic
    // arena round above (the densest instrumentation the wire path has).
    // The product bounds the nanoseconds a round spends in telemetry; the
    // gate holds that bound under 5% of a request that crosses a real
    // loopback TCP socket — the cheapest request the kernel's wire can
    // carry.  The arena link is a zero-syscall transport built to expose
    // allocator regressions, not a request anyone serves; its telemetry
    // share is reported as Info so the microbench-scale cost stays
    // visible, but the contract that lets the instruments stay on
    // unconditionally is the real-wire one.
    {
      obs::Registry& registry = obs::Registry::Default();
      obs::Histogram& probe_hist =
          registry.GetHistogram("bench.telemetry_probe");
      obs::Counter& probe_counter =
          registry.GetCounter("bench.telemetry_probe");
      constexpr int kOps = 1024;
      state.Time("telemetry_histogram_observe_x1024", [&] {
        for (int i = 0; i < kOps; ++i) {
          probe_hist.Observe(1e-3 + static_cast<double>(i) * 1e-6);
        }
        sink += 1;
      });
      state.Time("telemetry_counter_add_x1024", [&] {
        for (int i = 0; i < kOps; ++i) probe_counter.Add();
        sink += 1;
      });
      const double observe_ns =
          state.result().wall.at("telemetry_histogram_observe_x1024").median_ns /
          kOps;
      const double add_ns =
          state.result().wall.at("telemetry_counter_add_x1024").median_ns / kOps;

      // A fresh connection pair pins the measurement window to a
      // deterministic flow-control phase.  The shared pair above has run
      // an adaptive (run-to-run varying) number of timed rounds, and the
      // connection-level WINDOW_UPDATE cycle repeats every 64 rounds
      // (32768-byte threshold / 512-byte body) — a fixed window over it
      // would sometimes straddle one extra frame flush and the modeled
      // events-per-round would wobble between runs.
      http2::Connection ev_client(http2::Connection::Role::kClient, options);
      http2::Connection ev_server(http2::Connection::Role::kServer, options);
      ev_client.StartHandshake();
      ev_server.StartHandshake();
      net::DirectLinkExchange(ev_client, ev_server);
      auto ev_round = [&] {
        auto stream_id = ev_client.SubmitRequest(request, {});
        net::DirectLinkExchange(ev_client, ev_server);
        (void)ev_server.SubmitHeaders(stream_id.value(),
                                      {{":status", "200", false}}, false);
        (void)ev_server.SubmitData(stream_id.value(), body, true);
        net::DirectLinkExchange(ev_client, ev_server);
        ev_client.ReleaseStream(stream_id.value());
        ev_server.ReleaseStream(stream_id.value());
      };
      constexpr int kRounds = 8;
      for (int i = 0; i < kRounds; ++i) ev_round();  // settle into steady state
      const obs::RegistrySnapshot before = registry.Snapshot();
      for (int i = 0; i < kRounds; ++i) ev_round();
      const obs::RegistrySnapshot after = registry.Snapshot();
      const auto counter_delta = [&](const std::string& name) -> std::uint64_t {
        const auto now = after.counters.find(name);
        if (now == after.counters.end()) return 0;
        const auto was = before.counters.find(name);
        return now->second - (was == before.counters.end() ? 0 : was->second);
      };
      const auto histogram_count_delta =
          [&](const std::string& name) -> std::uint64_t {
        const auto now = after.histograms.find(name);
        if (now == after.histograms.end()) return 0;
        const auto was = before.histograms.find(name);
        return now->second.count -
               (was == before.histograms.end() ? 0 : was->second.count);
      };
      // Byte-valued counters cost one Add(n) per *call*, and each call on
      // this path rides another instrument 1:1: bytes_sent is added per
      // frame enqueued, while bytes_received and bytes_pumped are added
      // once per link flush (one Receive / one write_bytes observation).
      // Summing their value deltas would count every wire byte as an
      // event — 512 bytes of body would masquerade as 512 counter ops.
      const std::uint64_t flushes = histogram_count_delta("net.pump.write_bytes");
      const std::map<std::string, std::uint64_t> byte_counter_calls = {
          {"http2.bytes_sent", counter_delta("http2.frames_sent")},
          {"http2.bytes_received", flushes},
          {"net.pump.bytes_pumped", flushes},
      };
      std::uint64_t counter_events = 0;
      std::uint64_t histogram_events = 0;
      for (const auto& [name, value] : after.counters) {
        if (name == "bench.telemetry_probe") continue;  // adaptive, not per-round
        const auto paired = byte_counter_calls.find(name);
        counter_events += paired != byte_counter_calls.end()
                              ? paired->second
                              : counter_delta(name);
      }
      for (const auto& [name, hist] : after.histograms) {
        if (name == "bench.telemetry_probe") continue;
        histogram_events += histogram_count_delta(name);
      }
      const double counters_per_round =
          static_cast<double>(counter_events) / kRounds;
      const double histograms_per_round =
          static_cast<double>(histogram_events) / kRounds;
      state.Modeled("telemetry_counter_events_per_round", counters_per_round);
      state.Modeled("telemetry_histogram_events_per_round",
                    histograms_per_round);
      const double arena_round_ns =
          state.result().wall.at("request_response_round_trip_arena").median_ns;
      const double telemetry_ns =
          counters_per_round * add_ns + histograms_per_round * observe_ns;
      state.Info("telemetry_ns_per_round", telemetry_ns);
      state.Info("telemetry_share_of_arena_round",
                 arena_round_ns > 0.0 ? telemetry_ns / arena_round_ns : 0.0);

      // The denominator: the same request/response round across a real
      // kernel socket pair on loopback.
      bool tcp_ok = true;
      auto listener = net::TcpListener::Bind(0);
      state.Check(listener.ok(), "tcp loopback bind failed");
      if (listener.ok()) {
        auto client_transport = net::TcpConnect(listener.value()->port());
        auto server_transport =
            oracles::AcceptWithin(*listener.value(), 5000);
        state.Check(client_transport.ok() && server_transport.ok(),
                    "tcp loopback connect/accept failed");
        if (client_transport.ok() && server_transport.ok()) {
          http2::Connection tcp_client(http2::Connection::Role::kClient,
                                       options);
          http2::Connection tcp_server(http2::Connection::Role::kServer,
                                       options);
          tcp_client.StartHandshake();
          tcp_server.StartHandshake();
          auto pump_both = [&]() -> bool {  // true while progress was made
            auto c = net::PumpOnce(tcp_client, *client_transport.value());
            auto s = net::PumpOnce(tcp_server, *server_transport.value());
            if (!c.ok() || !s.ok()) {
              tcp_ok = false;
              return false;
            }
            return c.value().made_progress || s.value().made_progress;
          };
          for (int quiet = 0; quiet < 3 && tcp_ok;) {
            quiet = pump_both() ? 0 : quiet + 1;
          }
          (void)tcp_client.TakeEvents();
          (void)tcp_server.TakeEvents();
          auto tcp_round = [&] {
            auto stream_id = tcp_client.SubmitRequest(request, {});
            if (!stream_id.ok()) {
              tcp_ok = false;
              return;
            }
            // Busy-poll both endpoints: loopback delivery is fast and a
            // sleep would dwarf the quantity under measurement.
            for (int spin = 0; spin < 1000000 && tcp_ok; ++spin) {
              (void)pump_both();
              for (const auto& event : tcp_server.TakeEvents()) {
                if (event.type ==
                    http2::Connection::Event::Type::kMessageComplete) {
                  (void)tcp_server.SubmitHeaders(
                      event.stream_id, {{":status", "200", false}}, false);
                  (void)tcp_server.SubmitData(event.stream_id, body, true);
                  tcp_server.ReleaseStream(event.stream_id);
                }
              }
              for (const auto& event : tcp_client.TakeEvents()) {
                if (event.type ==
                    http2::Connection::Event::Type::kMessageComplete) {
                  tcp_client.ReleaseStream(event.stream_id);
                  return;
                }
              }
            }
            tcp_ok = false;  // response never completed
          };
          tcp_round();  // prove the path end to end before timing it
          state.Check(tcp_ok, "tcp loopback round trip did not complete");
          if (tcp_ok) {
            state.Time("request_response_round_trip_tcp", [&] {
              tcp_round();
              sink += 1;
            });
            const double tcp_round_ns =
                state.result()
                    .wall.at("request_response_round_trip_tcp")
                    .median_ns;
            const double fraction =
                tcp_round_ns > 0.0 ? telemetry_ns / tcp_round_ns : 1.0;
            state.Info("telemetry_overhead_fraction", fraction);
            state.Check(
                fraction < 0.05,
                "always-on telemetry exceeds 5% of a TCP request round trip");
          }
          client_transport.value()->Close();
          server_transport.value()->Close();
        }
      }
    }
  }

  state.Check(sink > 0, "fast-lane kernels produced no output");
  state.Check(lookup_mismatches == 0, "perfect hash diverged from linear scan");
  std::printf("probes: %zu static-table lookups, %zu dynamic entries warm\n",
              probes.size(), table.entry_count());
}
SWW_BENCHMARK(wire_fastlane);

}  // namespace
