#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "obs/registry.hpp"

namespace sww::net {

using util::Bytes;
using util::BytesView;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Error(ErrorCode::kIo, std::string("fcntl: ") + ::strerror(errno));
  }
  return Status::Ok();
}

std::int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide socket telemetry (function-local statics, like pump.cpp:
// the net layer has no long-lived object to cache handles on).
obs::Counter& TcpAccepts() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.tcp.accepts");
  return counter;
}
obs::Counter& TcpConnects() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.tcp.connects");
  return counter;
}
obs::Counter& TcpWriteStalls() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.tcp.write_stalls");
  return counter;
}

struct sockaddr_in LoopbackAddr(std::uint16_t port) {
  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

Status ApplySocketTuning(int fd, const SocketTuning& tuning) {
  if (tuning.tcp_nodelay) {
    int one = 1;
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
      return Error(ErrorCode::kIo,
                   std::string("setsockopt(TCP_NODELAY): ") + ::strerror(errno));
    }
  }
  if (tuning.recv_buffer_bytes > 0) {
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tuning.recv_buffer_bytes,
                     sizeof(tuning.recv_buffer_bytes)) < 0) {
      return Error(ErrorCode::kIo,
                   std::string("setsockopt(SO_RCVBUF): ") + ::strerror(errno));
    }
  }
  if (tuning.send_buffer_bytes > 0) {
    if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &tuning.send_buffer_bytes,
                     sizeof(tuning.send_buffer_bytes)) < 0) {
      return Error(ErrorCode::kIo,
                   std::string("setsockopt(SO_SNDBUF): ") + ::strerror(errno));
    }
  }
  return Status::Ok();
}

TcpTransport::TcpTransport(int fd) : fd_(fd) {}

TcpTransport::~TcpTransport() { Close(); }

Status TcpTransport::Write(BytesView bytes) {
  if (fd_ < 0) return Error(ErrorCode::kClosed, "tcp transport closed");
  const std::int64_t deadline =
      write_timeout_ms_ < 0 ? -1 : NowMillis() + write_timeout_ms_;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      TcpWriteStalls().Add();
      // Wait for writability, but only until the deadline: a stalled
      // reader surfaces as ETIMEDOUT instead of wedging the caller.
      int wait_ms = -1;
      if (deadline >= 0) {
        const std::int64_t remaining = deadline - NowMillis();
        if (remaining <= 0) {
          return Error(ErrorCode::kIo,
                       std::string("send timed out: ") + ::strerror(ETIMEDOUT));
        }
        wait_ms = static_cast<int>(remaining);
      }
      struct pollfd pfd{fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0 && errno != EINTR) {
        return Error(ErrorCode::kIo, std::string("poll: ") + ::strerror(errno));
      }
      if (ready == 0) {
        return Error(ErrorCode::kIo,
                     std::string("send timed out: ") + ::strerror(ETIMEDOUT));
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Error(ErrorCode::kClosed,
                   std::string("send: ") + ::strerror(errno));
    }
    return Error(ErrorCode::kIo, std::string("send: ") + ::strerror(errno));
  }
  return Status::Ok();
}

Result<Bytes> TcpTransport::Read() {
  if (fd_ < 0) return Error(ErrorCode::kClosed, "tcp transport closed");
  Bytes out;
  char buffer[16384];
  while (true) {
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      out.insert(out.end(), buffer, buffer + n);
      continue;
    }
    if (n == 0) {
      // Orderly shutdown by the peer.
      if (out.empty()) return Error(ErrorCode::kClosed, "peer closed");
      return out;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return out;
    if (errno == EINTR) continue;
    return Error(ErrorCode::kIo, std::string("recv: ") + ::strerror(errno));
  }
}

void TcpTransport::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<TcpListener>> TcpListener::Bind(std::uint16_t port) {
  return Bind(port, Options{});
}

Result<std::unique_ptr<TcpListener>> TcpListener::Bind(std::uint16_t port,
                                                       const Options& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Error(ErrorCode::kIo, std::string("socket: ") + ::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options.reuse_port) {
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
      ::close(fd);
      return Error(ErrorCode::kIo,
                   std::string("setsockopt(SO_REUSEPORT): ") + ::strerror(errno));
    }
  }
  struct sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Error(ErrorCode::kIo, std::string("bind: ") + ::strerror(errno));
  }
  if (::listen(fd, kBacklog) < 0) {
    ::close(fd);
    return Error(ErrorCode::kIo, std::string("listen: ") + ::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return Error(ErrorCode::kIo, std::string("getsockname: ") + ::strerror(errno));
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port), options));
}

Result<int> TcpListener::AcceptFd() {
  while (true) {
    const int client = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (client < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
      // A connection died in the queue (or a signal landed): the queue
      // behind it may still hold live peers — keep draining.
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
      // Out of descriptors/buffers: the queue is intact; retrying after
      // resources free up can succeed, so tell the caller which it is.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        return Error(ErrorCode::kResourceExhausted,
                     std::string("accept: ") + ::strerror(errno));
      }
      return Error(ErrorCode::kIo, std::string("accept: ") + ::strerror(errno));
    }
    if (auto status = ApplySocketTuning(client, options_.tuning); !status.ok()) {
      ::close(client);
      return status.error();
    }
    TcpAccepts().Add();
    return client;
  }
}

Result<std::unique_ptr<Transport>> TcpConnect(std::uint16_t port,
                                              int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error(ErrorCode::kIo, std::string("socket: ") + ::strerror(errno));
  }
  // Non-blocking from the start: the kernel answers EINPROGRESS and we
  // await writability under our own deadline instead of the kernel's
  // (minutes-long) connect timeout.
  if (auto status = SetNonBlocking(fd); !status.ok()) {
    ::close(fd);
    return status.error();
  }
  struct sockaddr_in addr = LoopbackAddr(port);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno == EINTR) {
    // Treat as in-progress; the poll below resolves the outcome.
    errno = EINPROGRESS;
    rc = -1;
  }
  if (rc < 0) {
    if (errno != EINPROGRESS) {
      const Error error(ErrorCode::kIo,
                        std::string("connect: ") + ::strerror(errno));
      ::close(fd);
      return error;
    }
    struct pollfd pfd{fd, POLLOUT, 0};
    const std::int64_t deadline = NowMillis() + (timeout_ms < 0 ? 0 : timeout_ms);
    int ready;
    do {
      const std::int64_t remaining =
          timeout_ms < 0 ? -1 : deadline - NowMillis();
      if (timeout_ms >= 0 && remaining <= 0) {
        ready = 0;
        break;
      }
      ready = ::poll(&pfd, 1, timeout_ms < 0 ? -1 : static_cast<int>(remaining));
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) {
      const Error error(ErrorCode::kIo,
                        std::string("poll: ") + ::strerror(errno));
      ::close(fd);
      return error;
    }
    if (ready == 0) {
      ::close(fd);
      return Error(ErrorCode::kIo,
                   std::string("connect timed out: ") + ::strerror(ETIMEDOUT));
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
      const Error error(ErrorCode::kIo,
                        std::string("getsockopt(SO_ERROR): ") + ::strerror(errno));
      ::close(fd);
      return error;
    }
    if (so_error != 0) {
      // ECONNREFUSED lands here: the async connect completed with failure.
      ::close(fd);
      return Error(ErrorCode::kIo,
                   std::string("connect: ") + ::strerror(so_error));
    }
  }
  if (auto status = ApplySocketTuning(fd, SocketTuning{}); !status.ok()) {
    ::close(fd);
    return status.error();
  }
  TcpConnects().Add();
  return std::unique_ptr<Transport>(std::make_unique<TcpTransport>(fd));
}

}  // namespace sww::net
