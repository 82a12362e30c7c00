// Tests for the HPACK Huffman code, anchored on RFC 7541 Appendix C's
// published example encodings.
#include <gtest/gtest.h>

#include "hpack/huffman.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sww::hpack {
namespace {

using util::Bytes;
using util::FromHex;
using util::HexDump;

std::string EncodeToHex(std::string_view text) {
  Bytes out;
  HuffmanEncode(text, out);
  return HexDump(out);
}

struct RfcVector {
  const char* label;  // where the literal appears in the RFC's examples
  const char* text;
  const char* hex;
};

// The printed parameter becomes the ctest name, so print the fixed label
// rather than gtest's byte dump of the two pointers, which changes from run
// to run.
void PrintTo(const RfcVector& vector, std::ostream* os) { *os << vector.label; }

class Rfc7541Vectors : public ::testing::TestWithParam<RfcVector> {};

TEST_P(Rfc7541Vectors, EncodeMatchesRfc) {
  EXPECT_EQ(EncodeToHex(GetParam().text),
            HexDump(FromHex(GetParam().hex).value()));
}

TEST_P(Rfc7541Vectors, DecodeMatchesRfc) {
  auto decoded = HuffmanDecode(FromHex(GetParam().hex).value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), GetParam().text);
}

TEST_P(Rfc7541Vectors, SizePredictionMatches) {
  EXPECT_EQ(HuffmanEncodedSize(GetParam().text),
            FromHex(GetParam().hex).value().size());
}

// All string literals from RFC 7541 Appendix C.4 and C.6.
INSTANTIATE_TEST_SUITE_P(
    AppendixC, Rfc7541Vectors,
    ::testing::Values(
        RfcVector{"authority", "www.example.com",
                  "f1e3 c2e5 f23a 6ba0 ab90 f4ff"},
        RfcVector{"cache_control_no_cache", "no-cache", "a8eb 1064 9cbf"},
        RfcVector{"custom_key", "custom-key", "25a8 49e9 5ba9 7d7f"},
        RfcVector{"custom_value", "custom-value", "25a8 49e9 5bb8 e8b4 bf"},
        RfcVector{"status_302", "302", "6402"},
        RfcVector{"cache_control_private", "private", "aec3 771a 4b"},
        RfcVector{"date_20_13_21", "Mon, 21 Oct 2013 20:13:21 GMT",
                  "d07a be94 1054 d444 a820 0595 040b 8166 e082 a62d 1bff"},
        RfcVector{"location", "https://www.example.com",
                  "9d29 ad17 1863 c78f 0b97 c8e9 ae82 ae43 d3"},
        RfcVector{"date_20_13_22", "Mon, 21 Oct 2013 20:13:22 GMT",
                  "d07a be94 1054 d444 a820 0595 040b 8166 e084 a62d 1bff"},
        RfcVector{"content_encoding_gzip", "gzip", "9bd9 ab"},
        RfcVector{"set_cookie",
                  "foo=ASDJKHQKBZXOQWEOPIUAXQWEOIU; max-age=3600; version=1",
                  "94e7 821d d7f2 e6c7 b335 dfdf cd5b 3960 d5af 2708 7f36 72c1"
                  " ab27 0fb5 291f 9587 3160 65c0 03ed 4ee5 b106 3d50 07"}));

TEST(Huffman, EmptyStringEncodesToNothing) {
  Bytes out;
  HuffmanEncode("", out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(HuffmanDecode({}).value(), "");
}

TEST(Huffman, AllByteValuesRoundTrip) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  Bytes encoded;
  HuffmanEncode(all, encoded);
  auto decoded = HuffmanDecode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), all);
}

TEST(Huffman, RandomStringsRoundTrip) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const std::size_t length = rng.NextBounded(64);
    for (std::size_t i = 0; i < length; ++i) {
      text.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    Bytes encoded;
    HuffmanEncode(text, encoded);
    auto decoded = HuffmanDecode(encoded);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial;
    EXPECT_EQ(decoded.value(), text);
  }
}

TEST(Huffman, PaddingMustBeEosPrefix) {
  // "0" encodes to 5 bits 00000; pad with zeros instead of ones → error.
  const Bytes bad = {0x00};
  EXPECT_FALSE(HuffmanDecode(bad).ok());
}

TEST(Huffman, PaddingLongerThanSevenBitsRejected) {
  // A full byte of ones is a valid EOS prefix but exceeds 7 padding bits.
  const Bytes bad = {0xff};
  auto result = HuffmanDecode(bad);
  EXPECT_FALSE(result.ok());
}

TEST(Huffman, ValidPaddingAccepted) {
  // "0" = 00000 + 3 one-bits of padding = 0x07.
  const Bytes good = {0x07};
  auto result = HuffmanDecode(good);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "0");
}

TEST(Huffman, CodeTableSpotChecks) {
  EXPECT_EQ(CodeForSymbol('0').bits, 0x0u);
  EXPECT_EQ(CodeForSymbol('0').length, 5);
  EXPECT_EQ(CodeForSymbol('a').bits, 0x3u);
  EXPECT_EQ(CodeForSymbol('a').length, 5);
  EXPECT_EQ(CodeForSymbol(256).length, 30);  // EOS
  EXPECT_EQ(CodeForSymbol(0).length, 13);
}

TEST(Huffman, EncodedSizeFavorsCommonCharacters) {
  // Lowercase ASCII compresses well below 1 byte/char; control characters
  // expand.
  EXPECT_LT(HuffmanEncodedSize("aeiou aeiou"), 11u);
  EXPECT_GT(HuffmanEncodedSize("\x01\x02\x03"), 3u);
}

}  // namespace
}  // namespace sww::hpack
