// session.hpp — client/server session harnesses.
//
// LocalSession wires a GenerativeClient and a GenerativeServer
// back-to-back with a deterministic byte shuttle (no sockets, no
// threads) — the workhorse for tests, benchmarks and the quickstart
// example, and the only harness that runs under ManualClock.
//
// LoopbackSession is the client side of a real TCP connection to a live
// server (normally a core::ReactorHost): it dials 127.0.0.1, runs the
// SETTINGS handshake, and exposes the same FetchPage/FetchRaw surface
// with a socket-backed pump.  Used by sww_top's scraper, the live load
// mode, and the TCP integration tests.
#pragma once

#include <memory>

#include "core/client.hpp"
#include "core/server.hpp"
#include "net/transport.hpp"

namespace sww::core {

class LocalSession {
 public:
  struct Options {
    GenerativeClient::Options client;
    GenerativeServer::Options server;
  };

  /// Create both endpoints over the shared store and run the connection
  /// preface + SETTINGS exchange to completion.
  static util::Result<std::unique_ptr<LocalSession>> Start(
      const ContentStore* store, Options options);

  GenerativeClient& client() { return *client_; }
  GenerativeServer& server() { return *server_; }

  /// The pump callable FetchPage needs: moves bytes client→server, lets the
  /// server answer, moves bytes back.
  GenerativeClient::PumpFn Pump();

  /// Convenience: fetch and materialize a page over this session.
  util::Result<PageFetch> FetchPage(const std::string& path);

 private:
  LocalSession(std::unique_ptr<GenerativeClient> client,
               std::unique_ptr<GenerativeServer> server)
      : client_(std::move(client)), server_(std::move(server)) {}

  util::Status PumpOnce();

  std::unique_ptr<GenerativeClient> client_;
  std::unique_ptr<GenerativeServer> server_;
};

class LoopbackSession {
 public:
  /// Dial deadline (surfaces ECONNREFUSED/ETIMEDOUT from TcpConnect).
  static constexpr int kConnectTimeoutMs = 5000;
  /// Give up a fetch when the socket makes no progress for this long.
  static constexpr int kPumpTimeoutMs = 10'000;

  /// Dial 127.0.0.1:`port` with a default-options client and run the
  /// preface + SETTINGS exchange to completion against the live server.
  static util::Result<std::unique_ptr<LoopbackSession>> Connect(
      std::uint16_t port);

  GenerativeClient& client() { return *client_; }

  /// Socket-backed pump: one PumpOnce over the transport; yields the CPU
  /// briefly when the wire is idle, errors after kPumpTimeoutMs of no
  /// progress.
  GenerativeClient::PumpFn Pump();

  util::Result<PageFetch> FetchPage(const std::string& path);
  util::Result<Response> FetchRaw(const std::string& path);

  void Close();

 private:
  LoopbackSession(std::unique_ptr<GenerativeClient> client,
                  std::unique_ptr<net::Transport> transport)
      : client_(std::move(client)), transport_(std::move(transport)) {}

  std::unique_ptr<GenerativeClient> client_;
  std::unique_ptr<net::Transport> transport_;
};

}  // namespace sww::core
