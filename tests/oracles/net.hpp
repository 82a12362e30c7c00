// net.hpp — blocking accept for tests and benchmarks.
//
// The product accepts only through TcpListener::AcceptFd from the
// reactor's event loop.  Tests and benchmarks that run a lone listener
// wait for the peer with this helper instead.
#pragma once

#include <memory>

#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "util/error.hpp"

namespace sww::oracles {

/// Wait up to `timeout_ms` for a pending connection, then accept it as a
/// TcpTransport.  An empty queue at the deadline is a kIo error.
util::Result<std::unique_ptr<net::Transport>> AcceptWithin(
    net::TcpListener& listener, int timeout_ms);

}  // namespace sww::oracles
