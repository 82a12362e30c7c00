// Tests for HTTP/2 framing (RFC 9113 §4, §6).
#include <gtest/gtest.h>

#include "http2/frame.hpp"
#include "oracles/http2.hpp"
#include "util/rng.hpp"

namespace sww::http2 {
namespace {

using oracles::MakeDataFrame;
using oracles::MakePriorityFrame;
using oracles::MakeSettingsAckFrame;
using oracles::MakeWindowUpdateFrame;
using oracles::SerializeFrame;
using oracles::WriteFrameHeader;
using util::Bytes;
using util::BytesView;

TEST(FrameHeader, SerializesToNineBytes) {
  FrameHeader header;
  header.length = 0x010203;
  header.type = FrameType::kHeaders;
  header.flags = kFlagEndHeaders | kFlagEndStream;
  header.stream_id = 0x12345678 & 0x7fffffff;
  util::ByteWriter writer;
  WriteFrameHeader(header, writer);
  ASSERT_EQ(writer.size(), kFrameHeaderSize);
  auto parsed = ParseFrameHeader(writer.bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().length, header.length);
  EXPECT_EQ(parsed.value().type, header.type);
  EXPECT_EQ(parsed.value().flags, header.flags);
  EXPECT_EQ(parsed.value().stream_id, header.stream_id);
}

TEST(FrameHeader, ReservedBitIsMaskedOnParse) {
  util::ByteWriter writer;
  writer.WriteU24(0);
  writer.WriteU8(0);
  writer.WriteU8(0);
  writer.WriteU32(0xffffffffu);  // reserved bit set
  auto parsed = ParseFrameHeader(writer.bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().stream_id, 0x7fffffffu);
}

TEST(FrameHeader, TruncatedInputRejected) {
  const Bytes short_bytes(5, 0);
  EXPECT_FALSE(ParseFrameHeader(short_bytes).ok());
}

TEST(Frames, DataRoundTrip) {
  const Bytes body = {1, 2, 3, 4};
  Frame frame = MakeDataFrame(5, body, /*end_stream=*/true);
  EXPECT_TRUE(frame.header.HasFlag(kFlagEndStream));
  auto extracted = ExtractDataPayload(frame);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted.value(), body);
}

TEST(Frames, PaddedDataStripsPadding) {
  Frame frame;
  frame.header.type = FrameType::kData;
  frame.header.stream_id = 1;
  frame.header.flags = kFlagPadded;
  frame.payload = {3, 'a', 'b', 0, 0, 0};  // pad length 3
  auto extracted = ExtractDataPayload(frame);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(util::ToString(extracted.value()), "ab");
}

TEST(Frames, PaddingLongerThanPayloadRejected) {
  Frame frame;
  frame.header.type = FrameType::kData;
  frame.header.flags = kFlagPadded;
  frame.payload = {9, 'a'};
  EXPECT_FALSE(ExtractDataPayload(frame).ok());
}

TEST(Frames, HeadersWithPriorityFieldsExtracts) {
  Frame frame;
  frame.header.type = FrameType::kHeaders;
  frame.header.stream_id = 3;
  frame.header.flags = kFlagPriority;
  util::ByteWriter writer;
  writer.WriteU32(0x80000001u);  // exclusive, dependency 1
  writer.WriteU8(200);           // weight
  writer.WriteString("block");
  frame.payload = std::move(writer).TakeBytes();
  std::optional<PriorityPayload> priority;
  auto block = ExtractHeaderBlockFragment(frame, &priority);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(util::ToString(block.value()), "block");
  ASSERT_TRUE(priority.has_value());
  EXPECT_TRUE(priority->exclusive);
  EXPECT_EQ(priority->dependency, 1u);
  EXPECT_EQ(priority->weight, 200);
}

TEST(Frames, SettingsRoundTrip) {
  const std::vector<SettingsEntry> entries = {{0x7, 1}, {0x4, 65535}};
  Frame frame = MakeSettingsFrame(entries);
  EXPECT_EQ(frame.header.stream_id, 0u);
  auto parsed = ParseSettingsPayload(frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].identifier, 0x7);
  EXPECT_EQ(parsed.value()[0].value, 1u);
}

TEST(Frames, SettingsBadLengthRejected) {
  Frame frame = MakeSettingsFrame({});
  frame.payload = {1, 2, 3};  // not a multiple of 6
  EXPECT_FALSE(ParseSettingsPayload(frame).ok());
}

TEST(Frames, SettingsAckWithPayloadRejected) {
  Frame frame = MakeSettingsAckFrame();
  frame.payload = {0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(ParseSettingsPayload(frame).ok());
}

TEST(Frames, PingRoundTrip) {
  Frame frame = MakePingFrame(0xdeadbeefcafef00dULL, /*ack=*/false);
  EXPECT_EQ(ParsePingPayload(frame).value(), 0xdeadbeefcafef00dULL);
  Frame bad = frame;
  bad.payload.pop_back();
  EXPECT_FALSE(ParsePingPayload(bad).ok());
}

TEST(Frames, GoawayRoundTrip) {
  Frame frame = MakeGoawayFrame(7, ErrorCode::kEnhanceYourCalm, "slow down");
  auto parsed = ParseGoawayPayload(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().last_stream_id, 7u);
  EXPECT_EQ(parsed.value().error_code, ErrorCode::kEnhanceYourCalm);
  EXPECT_EQ(parsed.value().debug_data, "slow down");
}

TEST(Frames, WindowUpdateRoundTripAndZeroRejected) {
  Frame frame = MakeWindowUpdateFrame(3, 1000);
  EXPECT_EQ(ParseWindowUpdatePayload(frame).value(), 1000u);
  Frame zero = MakeWindowUpdateFrame(3, 0);
  EXPECT_FALSE(ParseWindowUpdatePayload(zero).ok());
}

TEST(Frames, RstStreamRoundTrip) {
  Frame frame = MakeRstStreamFrame(9, ErrorCode::kCancel);
  EXPECT_EQ(ParseRstStreamPayload(frame).value(), ErrorCode::kCancel);
}

TEST(Frames, PriorityRoundTrip) {
  PriorityPayload priority{true, 11, 42};
  Frame frame = MakePriorityFrame(13, priority);
  auto parsed = ParsePriorityPayload(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().exclusive);
  EXPECT_EQ(parsed.value().dependency, 11u);
  EXPECT_EQ(parsed.value().weight, 42);
}

TEST(FrameTypeName, CoversAllTypes) {
  EXPECT_STREQ(FrameTypeName(FrameType::kData), "DATA");
  EXPECT_STREQ(FrameTypeName(FrameType::kContinuation), "CONTINUATION");
}

// --- incremental parser ---------------------------------------------------

TEST(FrameParser, ReassemblesByteAtATime) {
  Frame original = MakeDataFrame(1, util::ToBytes("hello world"), true);
  const Bytes wire = SerializeFrame(original);
  FrameParser parser;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    parser.Feed(BytesView(&wire[i], 1));
    auto next = parser.Next();
    ASSERT_TRUE(next.ok());
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(next.value().has_value());
    } else {
      ASSERT_TRUE(next.value().has_value());
      EXPECT_EQ(next.value()->payload, original.payload);
    }
  }
}

TEST(FrameParser, MultipleFramesInOneFeed) {
  Bytes wire;
  for (int i = 0; i < 5; ++i) {
    const Bytes frame = SerializeFrame(MakePingFrame(i, false));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  FrameParser parser;
  parser.Feed(wire);
  for (int i = 0; i < 5; ++i) {
    auto next = parser.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value());
    EXPECT_EQ(ParsePingPayload(*next.value()).value(),
              static_cast<std::uint64_t>(i));
  }
  EXPECT_FALSE(parser.Next().value().has_value());
}

TEST(FrameParser, OversizedFrameIsAnError) {
  FrameParser parser(16384);
  util::ByteWriter writer;
  writer.WriteU24(16385);
  writer.WriteU8(0);
  writer.WriteU8(0);
  writer.WriteU32(1);
  parser.Feed(writer.bytes());
  EXPECT_FALSE(parser.Next().ok());
}

TEST(FrameParser, RandomChunkingNeverLosesFrames) {
  util::Rng rng(55);
  Bytes wire;
  const int frame_count = 40;
  for (int i = 0; i < frame_count; ++i) {
    Bytes payload(rng.NextBounded(100));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.NextBounded(256));
    const Bytes frame = SerializeFrame(MakeDataFrame(1, payload, false));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  FrameParser parser;
  int parsed = 0;
  std::size_t offset = 0;
  while (offset < wire.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.NextBounded(37), wire.size() - offset);
    parser.Feed(BytesView(wire.data() + offset, chunk));
    offset += chunk;
    while (true) {
      auto next = parser.Next();
      ASSERT_TRUE(next.ok());
      if (!next.value().has_value()) break;
      ++parsed;
    }
  }
  EXPECT_EQ(parsed, frame_count);
}

}  // namespace
}  // namespace sww::http2
