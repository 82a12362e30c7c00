// http2.hpp — frame builders and serializers that only tests call.
//
// The product emits every frame through http2::AppendFrame into the
// connection's output arena.  SerializeFrame is the allocate-and-copy
// serializer it replaced, kept as the oracle the arena path is compared
// against; the builders make the frame types a test peer sends but the
// product never builds itself.
#pragma once

#include <cstdint>

#include "http2/connection.hpp"
#include "http2/frame.hpp"
#include "util/bytes.hpp"

namespace sww::oracles {

/// Serialize a frame header (9 bytes) into a writer.
void WriteFrameHeader(const http2::FrameHeader& header, util::ByteWriter& writer);

/// Serialize a full frame; `header.length` is taken from the payload.
util::Bytes SerializeFrame(const http2::Frame& frame);

http2::Frame MakeDataFrame(std::uint32_t stream_id, util::BytesView data,
                           bool end_stream);
http2::Frame MakePriorityFrame(std::uint32_t stream_id,
                               const http2::PriorityPayload& priority);
http2::Frame MakeSettingsAckFrame();
http2::Frame MakeWindowUpdateFrame(std::uint32_t stream_id,
                                   std::uint32_t increment);

/// Copy out and clear a connection's pending output (OutputView() then
/// ClearOutput()).
util::Bytes TakeOutput(http2::Connection& connection);

}  // namespace sww::oracles
