// transport.hpp — byte transport abstraction under the HTTP/2 engine.
//
// The Connection is sans-IO; a Transport moves its bytes.  Three concrete
// implementations exist: an in-memory duplex pair (deterministic tests and
// benchmarks), loopback TCP (tcp.hpp: integration tests, the examples and
// the tools) and ReliableLink (reliable_link.hpp: an ordered stream over a
// lossy datagram channel, standing in for QUIC).  All are non-blocking:
// Read returns whatever is available, possibly nothing.
#pragma once

#include <memory>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace sww::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Queue bytes for the peer.  Fails with kClosed after Close.
  virtual util::Status Write(util::BytesView bytes) = 0;

  /// Non-blocking read: everything currently available (may be empty).
  /// Fails with kClosed when the peer closed and no data remains.
  virtual util::Result<util::Bytes> Read() = 0;

  /// Close this end.  The peer observes kClosed after draining.
  virtual void Close() = 0;

  virtual bool closed() const = 0;
};

/// A connected pair of in-memory transports: bytes written to `first`
/// appear at `second` and vice versa.  Thread-safe.
struct TransportPair {
  std::unique_ptr<Transport> first;
  std::unique_ptr<Transport> second;
};

TransportPair MakeInMemoryPair();

}  // namespace sww::net
