// Tests for src/util: byte codecs, RNG, hashing, strings, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sww::util {
namespace {

// --- bytes ---------------------------------------------------------------

TEST(ByteWriter, WritesBigEndianIntegers) {
  ByteWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU16(0x0102);
  writer.WriteU24(0x030405);
  writer.WriteU32(0x06070809);
  EXPECT_EQ(HexDump(writer.bytes()), "ab 01 02 03 04 05 06 07 08 09");
}

TEST(ByteWriter, WriteU64RoundTrips) {
  ByteWriter writer;
  writer.WriteU64(0x0123456789abcdefULL);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789abcdefULL);
}

TEST(ByteWriter, PatchU24OverwritesInPlace) {
  ByteWriter writer;
  writer.WriteU24(0);
  writer.WriteU8(0xff);
  writer.PatchU24(0, 0x123456);
  EXPECT_EQ(HexDump(writer.bytes()), "12 34 56 ff");
}

TEST(ByteReader, ReadsSequentially) {
  const Bytes data = {0x01, 0x02, 0x03, 0x04, 0x05};
  ByteReader reader(data);
  EXPECT_EQ(reader.ReadU8().value(), 0x01);
  EXPECT_EQ(reader.ReadU16().value(), 0x0203);
  EXPECT_EQ(reader.remaining(), 2u);
  EXPECT_EQ(reader.ReadU16().value(), 0x0405);
  EXPECT_TRUE(reader.empty());
}

TEST(ByteReader, TruncationIsAnErrorNotUb) {
  const Bytes data = {0x01};
  ByteReader reader(data);
  auto result = reader.ReadU32();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kTruncated);
  // The failed read consumed nothing.
  EXPECT_EQ(reader.remaining(), 1u);
}

TEST(ByteReader, PeekDoesNotConsume) {
  const Bytes data = {0x42};
  ByteReader reader(data);
  EXPECT_EQ(reader.PeekU8().value(), 0x42);
  EXPECT_EQ(reader.PeekU8().value(), 0x42);
  EXPECT_EQ(reader.ReadU8().value(), 0x42);
  EXPECT_FALSE(reader.PeekU8().ok());
}

TEST(ByteReader, SkipAndRest) {
  const Bytes data = {1, 2, 3, 4};
  ByteReader reader(data);
  ASSERT_TRUE(reader.Skip(2).ok());
  EXPECT_EQ(reader.Rest().size(), 2u);
  EXPECT_FALSE(reader.Skip(3).ok());
}

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x7f, 0xff, 0x10};
  auto parsed = FromHex(HexDump(data));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), data);
}

TEST(Hex, AcceptsDenseAndSpacedInput) {
  EXPECT_EQ(FromHex("8286 8441").value(), (Bytes{0x82, 0x86, 0x84, 0x41}));
  EXPECT_EQ(FromHex("82868441").value(), (Bytes{0x82, 0x86, 0x84, 0x41}));
}

TEST(Hex, RejectsInvalidInput) {
  EXPECT_FALSE(FromHex("0g").ok());
  EXPECT_FALSE(FromHex("abc").ok());
}

TEST(BytesStrings, ToBytesToStringRoundTrip) {
  EXPECT_EQ(ToString(ToBytes("hello")), "hello");
  EXPECT_EQ(ToBytes("").size(), 0u);
}

// --- result/status -------------------------------------------------------

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> bad(ErrorCode::kNotFound, "nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(bad.value_or(3), 3);
  EXPECT_THROW(bad.value(), std::logic_error);
}

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  Status status(ErrorCode::kIo, "io failed");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.ToString(), "io: io failed");
}

// --- rng -----------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextU64() != b.NextU64()) ++differences;
  }
  EXPECT_GT(differences, 12);
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(77);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.Shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, copy);
}

// --- hash ----------------------------------------------------------------

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(Hash, CombineOrderMatters) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(Hash, UnitMappingInRange) {
  for (std::uint64_t h : {0ULL, 1ULL, 0xffffffffffffffffULL, 12345ULL}) {
    const double u = HashToUnit(h);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// --- strings -------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWhitespaceDropsEmpties) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(Strings, CaseAndAffixes) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(StartsWith("generated content", "generated"));
  EXPECT_TRUE(EndsWith("image.ppm", ".ppm"));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(Strings, JoinAndReplace) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(ReplaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(Strings, CountWords) {
  EXPECT_EQ(CountWords("one two  three"), 3u);
  EXPECT_EQ(CountWords(""), 0u);
}

TEST(Strings, TokenizeStripsPunctuationAndFoldsCase) {
  EXPECT_EQ(Tokenize("A cartoon Goldfish, swimming!"),
            (std::vector<std::string>{"a", "cartoon", "goldfish", "swimming"}));
}

TEST(Strings, ParseIntInRangeTakesOnlyAWholeNumberInRange) {
  EXPECT_EQ(ParseIntInRange("0", 0, 64), 0);
  EXPECT_EQ(ParseIntInRange("64", 0, 64), 64);
  EXPECT_EQ(ParseIntInRange("-3", -5, 5), -3);
  EXPECT_FALSE(ParseIntInRange("65", 0, 64).has_value());
  EXPECT_FALSE(ParseIntInRange("-1", 0, 64).has_value());
  EXPECT_FALSE(ParseIntInRange("", 0, 64).has_value());
  EXPECT_FALSE(ParseIntInRange("abc", 0, 64).has_value());
  EXPECT_FALSE(ParseIntInRange("4x", 0, 64).has_value());
  EXPECT_FALSE(ParseIntInRange(" 4", 0, 64).has_value());
  EXPECT_FALSE(ParseIntInRange("+4", 0, 64).has_value());
  EXPECT_FALSE(ParseIntInRange("99999999999999999999", 0, 64).has_value());
}

TEST(Strings, Format) {
  EXPECT_EQ(Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Format("%.2f", 1.239), "1.24");
}

// --- log -----------------------------------------------------------------

TEST(Log, SinkCapturesAboveLevel) {
  std::vector<std::string> captured;
  auto previous = Logger::Instance().SetSink(
      [&captured](LogLevel level, std::string_view component,
                  std::string_view message) {
        captured.push_back(std::string(LogLevelName(level)) + "/" +
                           std::string(component) + "/" + std::string(message));
      });
  const LogLevel previous_level = Logger::Instance().level();
  Logger::Instance().SetLevel(LogLevel::kInfo);
  LogDebug("t", "hidden");
  LogInfo("t", "shown");
  LogError("t", "also shown");
  Logger::Instance().SetLevel(previous_level);
  Logger::Instance().SetSink(previous);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "info/t/shown");
  EXPECT_EQ(captured[1], "error/t/also shown");
}

// --- property-style sweeps ------------------------------------------------

class ByteRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ByteRoundTrip, U32SurvivesWriteRead) {
  ByteWriter writer;
  writer.WriteU32(GetParam());
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU32().value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, ByteRoundTrip,
                         ::testing::Values(0u, 1u, 0x7fu, 0x80u, 0xffffu,
                                           0x10000u, 0x7fffffffu, 0x80000000u,
                                           0xffffffffu));

}  // namespace
}  // namespace sww::util
