#include "oracles/net.hpp"

#include <poll.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

namespace sww::oracles {

using util::Error;
using util::ErrorCode;

util::Result<std::unique_ptr<net::Transport>> AcceptWithin(
    net::TcpListener& listener, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    auto fd = listener.AcceptFd();
    if (!fd.ok()) return fd.error();
    if (fd.value() >= 0) {
      return std::unique_ptr<net::Transport>(
          std::make_unique<net::TcpTransport>(fd.value()));
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return Error(ErrorCode::kIo, "accept timed out");
    struct pollfd pfd{listener.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) < 0 && errno != EINTR) {
      return Error(ErrorCode::kIo, std::string("poll: ") + std::strerror(errno));
    }
  }
}

}  // namespace sww::oracles
