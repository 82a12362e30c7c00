// pump.hpp — glue that moves bytes between Connections and Transports.
//
// Two shapes:
//   * Pump       — one Connection ↔ one Transport (real endpoints).
//   * DirectLink — two Connections wired memory-to-memory with no transport
//                  at all (fully deterministic protocol tests/benches).
#pragma once

#include "http2/connection.hpp"
#include "net/transport.hpp"

namespace sww::net {

/// Drive one endpoint: flush the connection's pending output into the
/// transport, then feed any received bytes back into the connection.
/// Returns an error only for connection/transport failures; a clean
/// peer-close surfaces as ok() with `peer_closed` set.
struct PumpResult {
  bool made_progress = false;
  bool peer_closed = false;
};

util::Result<PumpResult> PumpOnce(http2::Connection& connection,
                                  Transport& transport);

/// Shuttle bytes directly between two in-process connections until both are
/// quiescent.  This is the deterministic harness used by protocol tests.
void DirectLinkExchange(http2::Connection& a, http2::Connection& b,
                        int max_rounds = 64);

}  // namespace sww::net
