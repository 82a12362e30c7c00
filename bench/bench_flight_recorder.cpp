// flight_recorder_tap — what does the wire tap cost?
//
// The flight recorder's contract is "null-check only when uninstalled":
// a connection with no tap must pay nothing measurable per frame, and a
// tapped connection's recording cost must stay small next to framing
// itself.  Both variants run as tolerance-gated wall kernels over the
// sans-IO connection pair; frame counts are reported as ungated info
// (they scale with whatever iteration count the adaptive protocol picks).
#include <cstdio>
#include <memory>

#include "http2/connection.hpp"
#include "obs/bench.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "oracles/http2.hpp"
#include "util/bytes.hpp"

namespace {

namespace oracles = sww::oracles;
using sww::http2::Connection;

struct ConnectionPair {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;

  ConnectionPair() {
    client = std::make_unique<Connection>(Connection::Role::kClient,
                                          Connection::Options{});
    server = std::make_unique<Connection>(Connection::Role::kServer,
                                          Connection::Options{});
    client->StartHandshake();
    server->StartHandshake();
    Shuttle();
  }

  void Shuttle() {
    for (int i = 0; i < 4; ++i) {
      if (client->HasOutput()) {
        (void)server->Receive(oracles::TakeOutput(*client));
      }
      if (server->HasOutput()) {
        (void)client->Receive(oracles::TakeOutput(*server));
      }
    }
    (void)client->TakeEvents();
    (void)server->TakeEvents();
  }
};

void PingRoundTrip(ConnectionPair& pair, std::uint64_t opaque) {
  pair.client->SendPing(opaque);
  (void)pair.server->Receive(oracles::TakeOutput(*pair.client));
  (void)pair.client->Receive(oracles::TakeOutput(*pair.server));
  (void)pair.client->TakeEvents();
  (void)pair.server->TakeEvents();
}

void flight_recorder_tap(sww::obs::bench::State& state) {
  sww::obs::Tracer::Default().SetEnabled(false);
  std::printf("flight recorder wire-tap overhead (PING round trips)\n\n");

  // Baseline: no tap installed — the hot path pays one null check.
  {
    ConnectionPair pair;
    std::uint64_t opaque = 0;
    state.Time("ping_round_trip_untapped",
               [&] { PingRoundTrip(pair, ++opaque); });
    state.Check(opaque > 0, "untapped kernel never ran");
  }

  // Tapped: every frame (4 per iteration: PING + ACK, both sides) lands in
  // the ring buffer, including steady-state overwrite once it wraps.
  {
    ConnectionPair pair;
    sww::obs::ConnectionTap client_tap("bench.client");
    sww::obs::ConnectionTap server_tap("bench.server");
    pair.client->SetWireTap(&client_tap);
    pair.server->SetWireTap(&server_tap);
    std::uint64_t opaque = 0;
    state.Time("ping_round_trip_tapped",
               [&] { PingRoundTrip(pair, ++opaque); });
    const double recorded = static_cast<double>(client_tap.total_recorded() +
                                                server_tap.total_recorded());
    const double dropped =
        static_cast<double>(client_tap.dropped() + server_tap.dropped());
    state.Info("frames_recorded", recorded);
    state.Info("frames_dropped_from_ring", dropped);
    state.Check(recorded > 0, "tapped kernel recorded no frames");
    std::printf("tapped run: %.0f frames recorded, %.0f overwritten in the "
                "ring\n",
                recorded, dropped);
  }

  sww::obs::Tracer::Default().SetEnabled(true);
}
SWW_BENCHMARK(flight_recorder_tap);

}  // namespace
