// tcp.hpp — loopback TCP transport (POSIX sockets).
//
// Used by the examples, integration tests, and the epoll reactor to run
// the generative server and client as genuinely separate endpoints over
// the kernel's TCP stack.  Sockets are always non-blocking; Read drains
// whatever the kernel has buffered, Write honors a caller-set deadline,
// and a listener hands out connections only through AcceptFd, which the
// reactor calls when the listening fd turns readable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/transport.hpp"
#include "util/error.hpp"

namespace sww::net {

/// Per-socket tuning applied to every connected stream socket — accepted
/// or dialed — in exactly one place (ApplySocketTuning), so a knob added
/// here reaches both directions of the loopback automatically.
struct SocketTuning {
  /// Disable Nagle.  The HTTP/2 layer already batches frames into one
  /// arena flush, so coalescing in the kernel only adds latency.
  bool tcp_nodelay = true;
  /// SO_RCVBUF / SO_SNDBUF hints; 0 leaves the kernel default.  Hints,
  /// not guarantees: Linux doubles the requested value for bookkeeping
  /// and clamps to /proc/sys/net/core limits.
  int recv_buffer_bytes = 0;
  int send_buffer_bytes = 0;
};

/// Apply `tuning` to a connected (or about-to-connect) stream socket.
util::Status ApplySocketTuning(int fd, const SocketTuning& tuning);

class TcpTransport final : public Transport {
 public:
  /// Takes ownership of a connected, non-blocking socket fd.
  explicit TcpTransport(int fd);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  util::Status Write(util::BytesView bytes) override;
  util::Result<util::Bytes> Read() override;
  void Close() override;
  bool closed() const override { return fd_ < 0; }

  int fd() const { return fd_; }

  /// Deadline for Write to drain its buffer when the socket stays
  /// unwritable (stalled reader).  Exceeding it surfaces ETIMEDOUT as a
  /// util::Status error instead of blocking forever.  -1 waits forever.
  void set_write_timeout_ms(int ms) { write_timeout_ms_ = ms; }
  int write_timeout_ms() const { return write_timeout_ms_; }

 private:
  int fd_;
  int write_timeout_ms_ = 5000;
};

/// Non-blocking listening socket bound to 127.0.0.1.  Port 0 picks a free
/// port.  Always SO_REUSEADDR (restarting on a fixed port does not fight
/// TIME_WAIT) with an accept queue of kBacklog.
class TcpListener {
 public:
  /// Kernel accept-queue depth.  A depth of 16 dropped SYNs under
  /// telemetry soak runs with many concurrent scrapers.
  static constexpr int kBacklog = 256;

  struct Options {
    /// SO_REUSEPORT before bind: several listeners share one port and
    /// the kernel load-balances incoming connections across them — the
    /// sharded-accept primitive the reactor server is built on.
    bool reuse_port = false;
    /// Tuning stamped onto every socket this listener accepts.
    SocketTuning tuning;
  };

  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  static util::Result<std::unique_ptr<TcpListener>> Bind(std::uint16_t port);
  static util::Result<std::unique_ptr<TcpListener>> Bind(
      std::uint16_t port, const Options& options);

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }
  const Options& options() const { return options_; }

  /// Accept one pending connection: returns a connected, non-blocking,
  /// tuned fd; -1 when no connection is pending (EAGAIN — not an error,
  /// just an empty queue); Error on real failures.
  util::Result<int> AcceptFd();

 private:
  TcpListener(int fd, std::uint16_t port, Options options)
      : fd_(fd), port_(port), options_(std::move(options)) {}
  int fd_;
  std::uint16_t port_;
  Options options_;
};

/// Connect to 127.0.0.1:port with a deadline.  The connect is issued
/// non-blocking and awaited up to `timeout_ms`; refusal and timeout come
/// back as errors (ECONNREFUSED / ETIMEDOUT in the message) instead of
/// blocking the caller in the kernel.
util::Result<std::unique_ptr<Transport>> TcpConnect(std::uint16_t port,
                                                    int timeout_ms = 5000);

}  // namespace sww::net
