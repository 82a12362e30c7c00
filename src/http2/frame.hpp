// frame.hpp — HTTP/2 frame layer (RFC 9113 §4, §6).
//
// Every frame is a 9-octet header (24-bit length, 8-bit type, 8-bit flags,
// 31-bit stream id) followed by a payload.  This module provides the generic
// header parser, the arena serializer (AppendFrame), builders for the
// frames the connection sends as whole Frames, typed payload parsers, and
// an incremental FrameParser that reassembles frames from an arbitrary
// byte stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "http2/error_codes.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace sww::http2 {

enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoaway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
};

/// Number of frame types RFC 9113 defines (wire bytes 0x0–0x9).  Received
/// bytes beyond this are extension frames; per-type telemetry skips them.
inline constexpr std::size_t kFrameTypeCount = 10;

const char* FrameTypeName(FrameType type);

// Frame flags (meaning depends on frame type).
inline constexpr std::uint8_t kFlagEndStream = 0x1;   // DATA, HEADERS
inline constexpr std::uint8_t kFlagAck = 0x1;         // SETTINGS, PING
inline constexpr std::uint8_t kFlagEndHeaders = 0x4;  // HEADERS, PUSH_PROMISE, CONTINUATION
inline constexpr std::uint8_t kFlagPadded = 0x8;      // DATA, HEADERS, PUSH_PROMISE
inline constexpr std::uint8_t kFlagPriority = 0x20;   // HEADERS

/// Default and protocol-limit frame size constants (RFC 9113 §4.2).
inline constexpr std::uint32_t kDefaultMaxFrameSize = 16384;
inline constexpr std::uint32_t kAbsoluteMaxFrameSize = 16777215;
inline constexpr std::uint32_t kFrameHeaderSize = 9;

/// The client connection preface (RFC 9113 §3.4).
inline constexpr std::string_view kClientPreface =
    "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

struct FrameHeader {
  std::uint32_t length = 0;     // 24-bit payload length
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;  // 31-bit; high bit reserved, always 0 here

  bool HasFlag(std::uint8_t flag) const { return (flags & flag) != 0; }
};

/// A complete frame: header plus owned payload bytes.
struct Frame {
  FrameHeader header;
  util::Bytes payload;
};

/// Parse a frame header from exactly 9 bytes.
util::Result<FrameHeader> ParseFrameHeader(util::BytesView bytes);

/// A frame over borrowed payload bytes — the zero-copy counterpart of
/// Frame.  The payload view must outlive the serialization call (it is
/// copied exactly once, into the output arena).  `header.length` is
/// ignored; the true payload size is patched in on the wire.
struct FrameRef {
  FrameHeader header;
  util::BytesView payload;
};

/// Append header + payload of `frame` to a reusable output arena.  This is
/// the hot serialization path: one 9-byte header append plus one payload
/// memcpy, no intermediate Frame, no temporary buffers.
void AppendFrame(const FrameRef& frame, util::BytesArena& out);

// --- Typed payloads ------------------------------------------------------

struct PriorityPayload {
  bool exclusive = false;
  std::uint32_t dependency = 0;
  std::uint8_t weight = 15;  // wire value; effective weight = value + 1
};

struct SettingsEntry {
  std::uint16_t identifier = 0;
  std::uint32_t value = 0;
};

struct GoawayPayload {
  std::uint32_t last_stream_id = 0;
  ErrorCode error_code = ErrorCode::kNoError;
  std::string debug_data;
};

/// Builders for the frames the connection sends whole.  DATA, HEADERS,
/// CONTINUATION, WINDOW_UPDATE and the SETTINGS ACK go straight through
/// AppendFrame.
Frame MakeRstStreamFrame(std::uint32_t stream_id, ErrorCode error);
Frame MakeSettingsFrame(const std::vector<SettingsEntry>& entries);
Frame MakePingFrame(std::uint64_t opaque, bool ack);
Frame MakeGoawayFrame(std::uint32_t last_stream_id, ErrorCode error,
                      std::string_view debug_data);

/// Typed parsers — validate payload lengths and reserved bits.
util::Result<std::vector<SettingsEntry>> ParseSettingsPayload(const Frame& frame);
/// View-based variant for callers that never materialize a Frame (wire
/// taps, zero-copy paths).
util::Result<std::vector<SettingsEntry>> ParseSettingsPayload(
    std::uint8_t flags, util::BytesView payload);
util::Result<PriorityPayload> ParsePriorityPayload(const Frame& frame);
util::Result<GoawayPayload> ParseGoawayPayload(const Frame& frame);
util::Result<std::uint32_t> ParseWindowUpdatePayload(const Frame& frame);
util::Result<std::uint64_t> ParsePingPayload(const Frame& frame);
util::Result<ErrorCode> ParseRstStreamPayload(const Frame& frame);

/// Strip padding from DATA / HEADERS payloads (PADDED flag) and, for
/// HEADERS with PRIORITY flag, the priority fields; returns the body/block.
util::Result<util::Bytes> ExtractDataPayload(const Frame& frame);
util::Result<util::Bytes> ExtractHeaderBlockFragment(const Frame& frame,
                                                     std::optional<PriorityPayload>* priority);

/// Incremental frame reassembler.  Push bytes in as they arrive from the
/// transport; pull complete frames out.  Enforces a maximum frame size
/// (updated from SETTINGS_MAX_FRAME_SIZE).
class FrameParser {
 public:
  explicit FrameParser(std::uint32_t max_frame_size = kDefaultMaxFrameSize)
      : max_frame_size_(max_frame_size) {}

  void set_max_frame_size(std::uint32_t size) { max_frame_size_ = size; }

  /// Append transport bytes to the internal buffer.
  void Feed(util::BytesView bytes);

  /// Next complete frame, if one is buffered.  A frame whose declared
  /// length exceeds the maximum yields a kFrameSize error (connection
  /// error FRAME_SIZE_ERROR per RFC 9113 §4.2).
  util::Result<std::optional<Frame>> Next();

  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  void Compact();

  util::Bytes buffer_;
  std::size_t consumed_ = 0;
  std::uint32_t max_frame_size_;
};

}  // namespace sww::http2
