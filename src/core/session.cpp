#include "core/session.hpp"

#include <chrono>
#include <thread>

#include "net/pump.hpp"
#include "net/tcp.hpp"

namespace sww::core {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

Result<std::unique_ptr<LocalSession>> LocalSession::Start(
    const ContentStore* store, Options options) {
  auto client = GenerativeClient::Create(options.client);
  if (!client) return client.error();
  auto server = GenerativeServer::Create(store, options.server);
  if (!server) return server.error();
  auto session = std::unique_ptr<LocalSession>(new LocalSession(
      std::move(client).value(), std::move(server).value()));
  session->client_->StartHandshake();
  session->server_->StartHandshake();
  // Drive the preface/SETTINGS exchange until both sides are settled.
  for (int round = 0; round < 8; ++round) {
    if (Status status = session->PumpOnce(); !status.ok()) return status.error();
    if (session->client_->connection().remote_settings_received() &&
        session->server_->connection().remote_settings_received() &&
        session->client_->connection().local_settings_acked() &&
        session->server_->connection().local_settings_acked()) {
      break;
    }
  }
  return session;
}

Status LocalSession::PumpOnce() {
  bool progress = true;
  int rounds = 0;
  while (progress && rounds++ < 64) {
    progress = false;
    // Zero-copy handoff: Receive() only appends to the receiving side's
    // output arena, so a borrowed view of the sender's arena stays valid.
    if (client_->connection().HasOutput()) {
      if (Status status = server_->connection().Receive(
              client_->connection().OutputView());
          !status.ok()) {
        return status;
      }
      client_->connection().ClearOutput();
      progress = true;
    }
    if (Status status = server_->ProcessEvents(); !status.ok()) return status;
    if (server_->connection().HasOutput()) {
      if (Status status = client_->connection().Receive(
              server_->connection().OutputView());
          !status.ok()) {
        return status;
      }
      server_->connection().ClearOutput();
      progress = true;
    }
  }
  return Status::Ok();
}

GenerativeClient::PumpFn LocalSession::Pump() {
  return [this]() { return PumpOnce(); };
}

Result<PageFetch> LocalSession::FetchPage(const std::string& path) {
  return client_->FetchPage(path, Pump());
}

Result<std::unique_ptr<LoopbackSession>> LoopbackSession::Connect(
    std::uint16_t port) {
  auto transport = net::TcpConnect(port, kConnectTimeoutMs);
  if (!transport.ok()) return transport.error();
  auto client = GenerativeClient::Create({});
  if (!client.ok()) return client.error();
  auto session = std::unique_ptr<LoopbackSession>(new LoopbackSession(
      std::move(client).value(), std::move(transport).value()));
  session->client_->StartHandshake();
  // Drive the handshake against the live server under the pump deadline.
  const auto pump = session->Pump();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kPumpTimeoutMs);
  while (!(session->client_->connection().remote_settings_received() &&
           session->client_->connection().local_settings_acked())) {
    if (Status status = pump(); !status.ok()) return status.error();
    if (std::chrono::steady_clock::now() > deadline) {
      return Error(ErrorCode::kIo, "SETTINGS handshake timed out");
    }
  }
  return session;
}

GenerativeClient::PumpFn LoopbackSession::Pump() {
  // Shared progress deadline across calls: FetchPage's pump loop calls
  // this many times, and each no-progress round sleeps briefly instead
  // of spinning the wire.
  auto last_progress = std::make_shared<std::chrono::steady_clock::time_point>(
      std::chrono::steady_clock::now());
  return [this, last_progress]() -> Status {
    auto result = net::PumpOnce(client_->connection(), *transport_);
    if (!result.ok()) return result.error();
    const auto now = std::chrono::steady_clock::now();
    if (result.value().made_progress) {
      *last_progress = now;
      return Status::Ok();
    }
    if (result.value().peer_closed) {
      return Error(ErrorCode::kClosed, "server closed the connection");
    }
    if (now - *last_progress >
        std::chrono::milliseconds(kPumpTimeoutMs)) {
      return Error(ErrorCode::kIo, "pump made no progress before deadline");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return Status::Ok();
  };
}

Result<PageFetch> LoopbackSession::FetchPage(const std::string& path) {
  return client_->FetchPage(path, Pump());
}

Result<Response> LoopbackSession::FetchRaw(const std::string& path) {
  return client_->FetchRaw(path, Pump());
}

void LoopbackSession::Close() {
  if (transport_) transport_->Close();
}

}  // namespace sww::core
