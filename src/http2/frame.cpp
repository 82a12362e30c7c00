#include "http2/frame.hpp"

namespace sww::http2 {

using util::ByteReader;
using util::Bytes;
using util::BytesView;
using util::ByteWriter;
using util::Error;
using util::Result;

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kData: return "DATA";
    case FrameType::kHeaders: return "HEADERS";
    case FrameType::kPriority: return "PRIORITY";
    case FrameType::kRstStream: return "RST_STREAM";
    case FrameType::kSettings: return "SETTINGS";
    case FrameType::kPushPromise: return "PUSH_PROMISE";
    case FrameType::kPing: return "PING";
    case FrameType::kGoaway: return "GOAWAY";
    case FrameType::kWindowUpdate: return "WINDOW_UPDATE";
    case FrameType::kContinuation: return "CONTINUATION";
  }
  return "UNKNOWN";
}

Result<FrameHeader> ParseFrameHeader(BytesView bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Error(util::ErrorCode::kTruncated, "frame header needs 9 bytes");
  }
  ByteReader reader(bytes);
  FrameHeader header;
  header.length = reader.ReadU24().value();
  header.type = static_cast<FrameType>(reader.ReadU8().value());
  header.flags = reader.ReadU8().value();
  header.stream_id = reader.ReadU32().value() & 0x7fffffffu;
  return header;
}

void AppendFrame(const FrameRef& frame, util::BytesArena& out) {
  out.AppendU24(static_cast<std::uint32_t>(frame.payload.size()));
  out.AppendU8(static_cast<std::uint8_t>(frame.header.type));
  out.AppendU8(frame.header.flags);
  out.AppendU32(frame.header.stream_id & 0x7fffffffu);
  out.Append(frame.payload);
}

Frame MakeRstStreamFrame(std::uint32_t stream_id, ErrorCode error) {
  Frame frame;
  frame.header.type = FrameType::kRstStream;
  frame.header.stream_id = stream_id;
  ByteWriter writer(4);
  writer.WriteU32(static_cast<std::uint32_t>(error));
  frame.payload = std::move(writer).TakeBytes();
  return frame;
}

Frame MakeSettingsFrame(const std::vector<SettingsEntry>& entries) {
  Frame frame;
  frame.header.type = FrameType::kSettings;
  frame.header.stream_id = 0;
  ByteWriter writer(entries.size() * 6);
  for (const SettingsEntry& entry : entries) {
    writer.WriteU16(entry.identifier);
    writer.WriteU32(entry.value);
  }
  frame.payload = std::move(writer).TakeBytes();
  return frame;
}

Frame MakePingFrame(std::uint64_t opaque, bool ack) {
  Frame frame;
  frame.header.type = FrameType::kPing;
  frame.header.stream_id = 0;
  frame.header.flags = ack ? kFlagAck : 0;
  ByteWriter writer(8);
  writer.WriteU64(opaque);
  frame.payload = std::move(writer).TakeBytes();
  return frame;
}

Frame MakeGoawayFrame(std::uint32_t last_stream_id, ErrorCode error,
                      std::string_view debug_data) {
  Frame frame;
  frame.header.type = FrameType::kGoaway;
  frame.header.stream_id = 0;
  ByteWriter writer(8 + debug_data.size());
  writer.WriteU32(last_stream_id & 0x7fffffffu);
  writer.WriteU32(static_cast<std::uint32_t>(error));
  writer.WriteString(debug_data);
  frame.payload = std::move(writer).TakeBytes();
  return frame;
}

Result<std::vector<SettingsEntry>> ParseSettingsPayload(const Frame& frame) {
  return ParseSettingsPayload(frame.header.flags, frame.payload);
}

Result<std::vector<SettingsEntry>> ParseSettingsPayload(std::uint8_t flags,
                                                        BytesView payload) {
  if ((flags & kFlagAck) != 0 && !payload.empty()) {
    return Error(util::ErrorCode::kFrameSize, "SETTINGS ACK with payload");
  }
  if (payload.size() % 6 != 0) {
    return Error(util::ErrorCode::kFrameSize,
                 "SETTINGS payload not a multiple of 6");
  }
  std::vector<SettingsEntry> entries;
  ByteReader reader(payload);
  while (!reader.empty()) {
    SettingsEntry entry;
    entry.identifier = reader.ReadU16().value();
    entry.value = reader.ReadU32().value();
    entries.push_back(entry);
  }
  return entries;
}

Result<PriorityPayload> ParsePriorityPayload(const Frame& frame) {
  if (frame.payload.size() != 5) {
    return Error(util::ErrorCode::kFrameSize, "PRIORITY payload must be 5 bytes");
  }
  ByteReader reader(frame.payload);
  const std::uint32_t dep = reader.ReadU32().value();
  PriorityPayload priority;
  priority.exclusive = (dep & 0x80000000u) != 0;
  priority.dependency = dep & 0x7fffffffu;
  priority.weight = reader.ReadU8().value();
  return priority;
}

Result<GoawayPayload> ParseGoawayPayload(const Frame& frame) {
  if (frame.payload.size() < 8) {
    return Error(util::ErrorCode::kFrameSize, "GOAWAY payload must be >= 8 bytes");
  }
  ByteReader reader(frame.payload);
  GoawayPayload payload;
  payload.last_stream_id = reader.ReadU32().value() & 0x7fffffffu;
  payload.error_code = static_cast<ErrorCode>(reader.ReadU32().value());
  payload.debug_data = util::ToString(reader.Rest());
  return payload;
}

Result<std::uint32_t> ParseWindowUpdatePayload(const Frame& frame) {
  if (frame.payload.size() != 4) {
    return Error(util::ErrorCode::kFrameSize, "WINDOW_UPDATE payload must be 4 bytes");
  }
  ByteReader reader(frame.payload);
  const std::uint32_t increment = reader.ReadU32().value() & 0x7fffffffu;
  if (increment == 0) {
    return Error(util::ErrorCode::kProtocol, "WINDOW_UPDATE increment of 0");
  }
  return increment;
}

Result<std::uint64_t> ParsePingPayload(const Frame& frame) {
  if (frame.payload.size() != 8) {
    return Error(util::ErrorCode::kFrameSize, "PING payload must be 8 bytes");
  }
  ByteReader reader(frame.payload);
  return reader.ReadU64();
}

Result<ErrorCode> ParseRstStreamPayload(const Frame& frame) {
  if (frame.payload.size() != 4) {
    return Error(util::ErrorCode::kFrameSize, "RST_STREAM payload must be 4 bytes");
  }
  ByteReader reader(frame.payload);
  return static_cast<ErrorCode>(reader.ReadU32().value());
}

Result<Bytes> ExtractDataPayload(const Frame& frame) {
  ByteReader reader(frame.payload);
  std::size_t pad_length = 0;
  if (frame.header.HasFlag(kFlagPadded)) {
    auto pad = reader.ReadU8();
    if (!pad) return pad.error();
    pad_length = pad.value();
  }
  if (pad_length > reader.remaining()) {
    return Error(util::ErrorCode::kProtocol, "padding exceeds payload");
  }
  BytesView body = reader.Rest().first(reader.remaining() - pad_length);
  return Bytes(body.begin(), body.end());
}

Result<Bytes> ExtractHeaderBlockFragment(const Frame& frame,
                                         std::optional<PriorityPayload>* priority) {
  ByteReader reader(frame.payload);
  std::size_t pad_length = 0;
  if (frame.header.HasFlag(kFlagPadded)) {
    auto pad = reader.ReadU8();
    if (!pad) return pad.error();
    pad_length = pad.value();
  }
  if (frame.header.type == FrameType::kHeaders &&
      frame.header.HasFlag(kFlagPriority)) {
    auto dep = reader.ReadU32();
    if (!dep) return dep.error();
    auto weight = reader.ReadU8();
    if (!weight) return weight.error();
    if (priority != nullptr) {
      PriorityPayload parsed;
      parsed.exclusive = (dep.value() & 0x80000000u) != 0;
      parsed.dependency = dep.value() & 0x7fffffffu;
      parsed.weight = weight.value();
      *priority = parsed;
    }
  }
  if (pad_length > reader.remaining()) {
    return Error(util::ErrorCode::kProtocol, "padding exceeds payload");
  }
  BytesView block = reader.Rest().first(reader.remaining() - pad_length);
  return Bytes(block.begin(), block.end());
}

void FrameParser::Feed(BytesView bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void FrameParser::Compact() {
  // Avoid unbounded growth: drop consumed prefix once it dominates.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

Result<std::optional<Frame>> FrameParser::Next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderSize) return std::optional<Frame>{};
  BytesView view(buffer_.data() + consumed_, available);
  auto header = ParseFrameHeader(view.first(kFrameHeaderSize));
  if (!header) return header.error();
  if (header.value().length > max_frame_size_) {
    return Error(util::ErrorCode::kFrameSize,
                 "frame length " + std::to_string(header.value().length) +
                     " exceeds max " + std::to_string(max_frame_size_));
  }
  const std::size_t total = kFrameHeaderSize + header.value().length;
  if (available < total) return std::optional<Frame>{};
  Frame frame;
  frame.header = header.value();
  frame.payload.assign(view.begin() + kFrameHeaderSize, view.begin() + static_cast<std::ptrdiff_t>(total));
  consumed_ += total;
  Compact();
  return std::optional<Frame>(std::move(frame));
}

}  // namespace sww::http2
