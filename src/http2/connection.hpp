// connection.hpp — the HTTP/2 connection state machine (RFC 9113).
//
// Sans-IO design: the Connection never touches a socket.  Transport bytes
// are pushed in with Receive(); bytes to write are borrowed with
// OutputView() and released with ClearOutput(); protocol happenings
// surface as Events.  This keeps the
// whole protocol engine deterministic and unit-testable — two Connections
// can be wired back-to-back in memory — while the net:: layer pumps real
// sockets.
//
// The SWW extension rides on this engine unchanged except for one new
// SETTINGS parameter (settings.hpp): after the SETTINGS exchange,
// negotiated_gen_ability() reports the capability subset shared by both
// endpoints, and the core:: layer decides whether to serve prompts or
// traditional content.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hpack/hpack.hpp"
#include "http2/frame.hpp"
#include "http2/settings.hpp"
#include "http2/stream.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace sww::http2 {

/// Frames counted by wire type: one slot per RFC 9113 type and a last
/// slot shared by every unknown extension type, so counting a frame is an
/// array increment and a snapshot is a fixed-size copy.
struct FrameCounts {
  std::array<std::uint64_t, kFrameTypeCount + 1> by_slot{};

  static std::size_t Slot(FrameType type) {
    return std::min(static_cast<std::size_t>(type), kFrameTypeCount);
  }
  void Count(FrameType type) { ++by_slot[Slot(type)]; }
  /// Frames of `type`; every unknown type reads the shared unknown slot.
  std::uint64_t operator[](FrameType type) const { return by_slot[Slot(type)]; }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t n : by_slot) sum += n;
    return sum;
  }
  /// The non-zero counts keyed by type, unknown frames under the first
  /// unassigned type value.  fetchbench/main.cpp reads the mix this way.
  operator std::map<FrameType, std::uint64_t>() const {
    std::map<FrameType, std::uint64_t> mix;
    for (std::size_t slot = 0; slot < by_slot.size(); ++slot) {
      if (by_slot[slot] != 0) mix[static_cast<FrameType>(slot)] = by_slot[slot];
    }
    return mix;
  }
};

class Connection {
 public:
  enum class Role { kClient, kServer };

  struct Options {
    Settings local_settings;
  };

  /// Receive flow-control windows are replenished (WINDOW_UPDATE sent)
  /// once this many bytes have been consumed.
  static constexpr std::uint32_t kWindowUpdateThreshold = 32768;
  /// Largest header block (HEADERS + CONTINUATION fragments) assembled
  /// before decoding.  A peer that sends more without END_HEADERS gets
  /// GOAWAY ENHANCE_YOUR_CALM, so it cannot grow the buffer without bound.
  static constexpr std::size_t kMaxHeaderBlockBytes = 64 * 1024;

  struct Event {
    enum class Type {
      kRemoteSettingsReceived,  ///< peer SETTINGS applied (ACK already queued)
      kSettingsAcked,           ///< peer acknowledged our SETTINGS
      kHeadersReceived,         ///< a complete header block was decoded
      kMessageComplete,         ///< stream saw END_STREAM; headers+body ready
      kStreamReset,             ///< RST_STREAM received
      kGoawayReceived,
      kPingAcked,
    };
    Type type;
    std::uint32_t stream_id = 0;
    ErrorCode error = ErrorCode::kNoError;
    std::uint64_t ping_opaque = 0;
  };

  Connection(Role role, Options options);
  ~Connection();  ///< ends the spans of live streams and unacked SETTINGS
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queue the connection preface: client preface string (client only) plus
  /// our initial SETTINGS frame.  Must be called once before any exchange.
  void StartHandshake();

  // --- Transport side ----------------------------------------------------

  /// Feed bytes read from the transport.  On a connection error the return
  /// status is the root cause; a GOAWAY has already been queued in the
  /// output buffer and the connection is dead.
  util::Status Receive(util::BytesView bytes);

  /// Borrow the bytes that must be written to the transport.  Valid until
  /// the next Enqueue/Submit/Receive call or ClearOutput().
  util::BytesView OutputView() const { return output_.View(); }
  /// Mark the borrowed output as written; keeps the arena's storage for
  /// reuse, so steady-state serialization allocates nothing.
  void ClearOutput() { output_.Clear(); }
  bool HasOutput() const { return !output_.empty(); }
  /// Allocations made by the output arena since construction (for tests
  /// and the modeled steady-state-zero-alloc benchmark gate).
  std::uint64_t output_allocations() const { return output_.allocations(); }

  /// Drain protocol events observed since the last call.
  std::vector<Event> TakeEvents();

  // --- Application side --------------------------------------------------

  /// Client: open a new stream carrying a request.  Returns the stream id.
  /// `end_stream` marks the request as having no body.
  util::Result<std::uint32_t> SubmitRequest(const hpack::HeaderList& headers,
                                            util::BytesView body,
                                            bool end_stream_after_body = true);

  /// Server: send response headers on an existing stream.
  util::Status SubmitHeaders(std::uint32_t stream_id,
                             const hpack::HeaderList& headers, bool end_stream);

  /// Send body data (both roles).  Respects flow control: anything beyond
  /// the current send window is queued and flushed on WINDOW_UPDATE.
  util::Status SubmitData(std::uint32_t stream_id, util::BytesView data,
                          bool end_stream);

  util::Status ResetStream(std::uint32_t stream_id, ErrorCode error);
  void SendPing(std::uint64_t opaque);
  void SendGoaway(ErrorCode error, std::string_view debug_data);

  /// Re-advertise settings mid-connection (e.g. a server turning generative
  /// serving off when renewable energy is unavailable, §5.1 of the paper).
  void UpdateLocalSettings(const Settings& settings);

  // --- Introspection -----------------------------------------------------

  Role role() const { return role_; }
  bool handshake_started() const { return handshake_started_; }
  bool remote_settings_received() const { return remote_settings_received_; }
  bool local_settings_acked() const { return local_settings_acked_; }
  bool going_away() const { return going_away_; }
  bool dead() const { return dead_; }

  const Settings& local_settings() const { return local_settings_; }
  const Settings& remote_settings() const { return remote_settings_; }

  /// The SWW negotiation result (§3 of the paper): bitwise-AND of both
  /// endpoints' GEN_ABILITY.  Zero until the peer's SETTINGS arrive — i.e.
  /// a participating endpoint talking to a naïve peer sees "none" and falls
  /// back to standard HTTP/2 behaviour.
  std::uint32_t negotiated_gen_ability() const;
  /// True when both sides advertised full client-side generation.
  bool generative_mode() const {
    return (negotiated_gen_ability() & kGenAbilityFull) != 0;
  }

  /// nullptr once reaped (released and drained, or reset) or never opened.
  const Stream* FindStream(std::uint32_t stream_id) const;
  Stream* FindMutableStream(std::uint32_t stream_id);
  /// The application is done: reap the stream once its send queue drains.
  void ReleaseStream(std::uint32_t stream_id);
  /// Streams open or half-closed (O(1): kept by the one state setter).
  std::size_t active_stream_count() const { return active_streams_; }

  /// Totals for the evaluation harness (bytes on the wire in each
  /// direction, frame counts by type).  Per-connection truth; the same
  /// quantities are mirrored into the process-wide obs::Registry under
  /// http2.* so one Snapshot() aggregates every connection.
  struct WireStats {
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t flow_control_stalls = 0;  ///< sends blocked on a window
    FrameCounts frames_sent;
    FrameCounts frames_received;
  };
  const WireStats& wire_stats() const { return stats_; }

  /// Install a flight-recorder wire tap: every frame sent or received is
  /// recorded (direction, type, stream id, flags, length, clock timestamp;
  /// HEADERS records carry the HPACK-decoded header list, SETTINGS records
  /// the parsed entries).  The tap is not owned and must outlive the
  /// connection or be uninstalled (nullptr) first.  With no tap installed
  /// the frame hot paths add only this null-check.
  void SetWireTap(obs::ConnectionTap* tap) { tap_ = tap; }
  obs::ConnectionTap* wire_tap() const { return tap_; }

 private:
  util::Status HandleFrame(Frame frame);
  util::Status HandleData(const Frame& frame);
  util::Status HandleHeaders(const Frame& frame);
  util::Status HandleContinuation(const Frame& frame);
  util::Status HandleSettings(const Frame& frame);
  util::Status HandlePing(const Frame& frame);
  util::Status HandleGoaway(const Frame& frame);
  util::Status HandleWindowUpdate(const Frame& frame);
  util::Status HandleRstStream(const Frame& frame);
  util::Status HandlePriority(const Frame& frame);

  util::Status FinishHeaderBlock();
  util::Status ConnectionError(ErrorCode code, const std::string& message);
  /// Hot serialization path: header + payload view appended straight into
  /// the output arena (one memcpy, no intermediate Frame).
  void EnqueueFrameRef(FrameType type, std::uint8_t flags,
                       std::uint32_t stream_id, util::BytesView payload);
  /// Convenience wrapper for cold paths that already built a Frame.
  void EnqueueFrame(const Frame& frame);
  /// Encode `headers` into the reusable encode buffer and emit HEADERS (+
  /// CONTINUATION fragments as needed) without copying the block.
  void EmitHeaderBlock(std::uint32_t stream_id, const hpack::HeaderList& headers,
                       bool end_stream);
  /// Record one frame into the installed wire tap (no-op without one).
  void TapFrame(obs::TapDirection direction, const FrameHeader& header,
                util::BytesView payload);
  /// Attach a decoded header list to the newest matching tapped HEADERS
  /// record.
  void TapHeaders(obs::TapDirection direction, std::uint32_t stream_id,
                  const hpack::HeaderList& headers);
  /// `stream` is nullptr for a reaped id: only the connection window counts.
  void MaybeReplenishWindows(Stream* stream, std::size_t consumed);
  void FlushSendQueues();
  void FlushStreamSendQueue(Stream& stream);
  using StreamMap = std::map<std::uint32_t, Stream>;
  Stream& OpenStream(std::uint32_t stream_id);
  /// The one writer of Stream::state; keeps active_streams_ exact.
  void SetState(Stream& stream, StreamState next);
  void EndStream(Stream& stream, bool local);  // END_STREAM sent or received
  /// The one site that erases a record: closes the stream, ends its span,
  /// observes http2.stream_seconds.  Returns the next record.
  StreamMap::iterator Reap(StreamMap::iterator it);
  /// Queue RST_STREAM and reap the stream's record if it still has one.
  void SendReset(std::uint32_t stream_id, ErrorCode error);
  bool IsPeerInitiated(std::uint32_t stream_id) const;
  /// Not yet opened (RFC 9113 §5.1.1); a reaped id is closed, not idle.
  bool IsIdle(std::uint32_t stream_id) const;

  Role role_;
  Options options_;
  Settings local_settings_;
  Settings remote_settings_;

  hpack::Encoder encoder_;
  hpack::Decoder decoder_;
  FrameParser frame_parser_;

  util::BytesArena output_;     // serialized frames awaiting the transport
  util::Bytes encode_buffer_;   // reused for every outgoing header block
  std::vector<Event> events_;
  StreamMap streams_;  // the only per-stream state; flushed in id order
  std::size_t active_streams_ = 0;

  // Header-block assembly state (HEADERS + CONTINUATION*).
  bool assembling_headers_ = false;
  std::uint32_t assembling_stream_id_ = 0;
  bool assembling_end_stream_ = false;
  util::Bytes header_block_;

  bool handshake_started_ = false;
  bool preface_received_ = false;   // server: client preface consumed
  util::Bytes preface_buffer_;
  bool remote_settings_received_ = false;
  bool local_settings_acked_ = false;
  bool going_away_ = false;
  bool dead_ = false;

  std::uint32_t next_stream_id_;        // next locally-initiated stream id
  std::uint32_t last_peer_stream_id_ = 0;

  FlowWindow connection_send_window_{65535};
  FlowWindow connection_recv_window_{65535};
  std::size_t connection_consumed_ = 0;

  WireStats stats_;

  // Process-wide telemetry (obs::Registry::Default / obs::Tracer::Default).
  struct Instruments {
    obs::Counter* frames_sent;
    obs::Counter* frames_received;
    obs::Counter* bytes_sent;
    obs::Counter* bytes_received;
    obs::Counter* flow_control_stalls;
    obs::Counter* streams_opened;
    /// Frame mix: one counter per known frame type and direction
    /// (http2.frames_sent.DATA, ...), indexed by the wire type byte.
    /// Unknown extension types count only in the aggregate counters.
    std::array<obs::Counter*, kFrameTypeCount> frames_sent_by_type;
    std::array<obs::Counter*, kFrameTypeCount> frames_received_by_type;
    /// Per-stream open → release-or-reset latency in tracer-clock seconds.
    obs::Histogram* stream_seconds;
  };
  Instruments instruments_;
  obs::SpanId settings_span_ = 0;               ///< SETTINGS round-trip
  obs::ConnectionTap* tap_ = nullptr;           ///< flight-recorder wire tap
};

}  // namespace sww::http2
