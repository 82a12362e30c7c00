#include "oracles/http2.hpp"

namespace sww::oracles {

using http2::Frame;
using http2::FrameType;
using util::Bytes;
using util::ByteWriter;

void WriteFrameHeader(const http2::FrameHeader& header, ByteWriter& writer) {
  writer.WriteU24(header.length);
  writer.WriteU8(static_cast<std::uint8_t>(header.type));
  writer.WriteU8(header.flags);
  writer.WriteU32(header.stream_id & 0x7fffffffu);
}

Bytes SerializeFrame(const Frame& frame) {
  ByteWriter writer(http2::kFrameHeaderSize + frame.payload.size());
  http2::FrameHeader header = frame.header;
  header.length = static_cast<std::uint32_t>(frame.payload.size());
  WriteFrameHeader(header, writer);
  writer.WriteBytes(frame.payload);
  return std::move(writer).TakeBytes();
}

Frame MakeDataFrame(std::uint32_t stream_id, util::BytesView data,
                    bool end_stream) {
  Frame frame;
  frame.header.type = FrameType::kData;
  frame.header.stream_id = stream_id;
  frame.header.flags = end_stream ? http2::kFlagEndStream : 0;
  frame.payload.assign(data.begin(), data.end());
  return frame;
}

Frame MakePriorityFrame(std::uint32_t stream_id,
                        const http2::PriorityPayload& priority) {
  Frame frame;
  frame.header.type = FrameType::kPriority;
  frame.header.stream_id = stream_id;
  ByteWriter writer(5);
  std::uint32_t dep = priority.dependency & 0x7fffffffu;
  if (priority.exclusive) dep |= 0x80000000u;
  writer.WriteU32(dep);
  writer.WriteU8(priority.weight);
  frame.payload = std::move(writer).TakeBytes();
  return frame;
}

Frame MakeSettingsAckFrame() {
  Frame frame;
  frame.header.type = FrameType::kSettings;
  frame.header.flags = http2::kFlagAck;
  return frame;
}

Frame MakeWindowUpdateFrame(std::uint32_t stream_id, std::uint32_t increment) {
  Frame frame;
  frame.header.type = FrameType::kWindowUpdate;
  frame.header.stream_id = stream_id;
  ByteWriter writer(4);
  writer.WriteU32(increment & 0x7fffffffu);
  frame.payload = std::move(writer).TakeBytes();
  return frame;
}

Bytes TakeOutput(http2::Connection& connection) {
  const util::BytesView view = connection.OutputView();
  Bytes out(view.begin(), view.end());
  connection.ClearOutput();
  return out;
}

}  // namespace sww::oracles
