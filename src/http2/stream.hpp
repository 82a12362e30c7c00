// stream.hpp — HTTP/2 stream state (RFC 9113 §5).
//
// A Stream is all the Connection keeps about one stream.  The Connection
// owns a map of them and erases a record at one site (Connection::Reap):
// when the app released a drained stream, or on RST_STREAM sent or
// received.  The stream-id watermarks tell a reaped (closed) id from idle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "hpack/hpack.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace sww::http2 {

enum class StreamState : std::uint8_t {
  kIdle,
  kOpen,
  kHalfClosedLocal,   // we sent END_STREAM; peer may still send
  kHalfClosedRemote,  // peer sent END_STREAM; we may still send
  kClosed,
};

const char* StreamStateName(StreamState state);

/// The state after one side sends END_STREAM (`local` = we sent it):
/// open → half-closed on that side, half-closed on the other side → closed.
StreamState StateAfterEndStream(StreamState state, bool local);

/// A signed flow-control window.  Windows can go negative when the peer
/// shrinks INITIAL_WINDOW_SIZE after data was sent (RFC 9113 §6.9.2).
class FlowWindow {
 public:
  explicit FlowWindow(std::int64_t initial = 65535) : window_(initial) {}

  std::int64_t available() const { return window_; }

  /// Consume `bytes` (sending or receiving data).
  void Consume(std::int64_t bytes) { window_ -= bytes; }

  /// Widen by `increment`; errors if the window would exceed 2^31-1
  /// (FLOW_CONTROL_ERROR per RFC 9113 §6.9.1).
  util::Status Widen(std::int64_t increment);

  /// Adjust for a change of INITIAL_WINDOW_SIZE (applies the delta).
  void AdjustInitial(std::int64_t delta) { window_ += delta; }

 private:
  std::int64_t window_;
};

/// Per-stream state.  Header/body accumulation happens here so the
/// connection can emit complete-message events.
struct Stream {
  std::uint32_t id = 0;
  StreamState state = StreamState::kIdle;
  /// Lifetime span and tracer-clock start; Reap observes open → release
  /// or reset into http2.stream_seconds.
  obs::SpanId span = 0;
  std::uint64_t opened_nanos = 0;

  FlowWindow send_window{65535};
  FlowWindow recv_window{65535};
  /// Received DATA bytes not yet returned to the peer by WINDOW_UPDATE.
  std::size_t unacked_recv_bytes = 0;

  hpack::HeaderList headers;        // request or response headers
  hpack::HeaderList trailers;
  bool saw_headers = false;
  util::Bytes body;                 // accumulated DATA payload
  bool remote_end = false;          // peer sent END_STREAM
  bool local_end = false;           // we sent END_STREAM
  /// Application released the stream while data was still queued behind
  /// flow control; it is reaped automatically once the queue drains.
  bool pending_release = false;

  /// Data waiting for send-window capacity.
  struct PendingData {
    util::Bytes data;
    bool end_stream = false;
  };
  std::deque<PendingData> send_queue;

  bool CanSendData() const {
    return state == StreamState::kOpen || state == StreamState::kHalfClosedRemote;
  }
  bool CanReceiveData() const {
    return state == StreamState::kOpen || state == StreamState::kHalfClosedLocal;
  }
};

}  // namespace sww::http2
