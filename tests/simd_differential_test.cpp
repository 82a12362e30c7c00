// simd_differential_test — randomized differential suites for the SIMD
// compute fast lanes: the scalar lane is the in-tree oracle, and the AVX2
// lane must agree with it TO THE BIT on 10k randomized inputs per kernel.
// Nothing here uses tolerances: a single flipped bit in any lane is a
// failure.
//
// Layers covered:
//   * util::simd kernels directly — DotPairwise (plus an independent
//     re-implementation of the canonical fixed-tree semantics) and
//     MatchLength;
//   * whole product paths driven through each lane via SetActiveLane —
//     genai::Cosine, the LZ77 tokenizer, a full diffusion render and the
//     SWZ coder.
//
// The suite is also run under ASAN/UBSAN and with SWW_SIMD forced to each
// lane by the simd-differential CI job.
#include "util/simd.hpp"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/swz.hpp"
#include "genai/diffusion.hpp"
#include "genai/embedding.hpp"
#include "metrics/clip.hpp"
#include "util/rng.hpp"

namespace sww {
namespace {

namespace simd = util::simd;

constexpr int kInputs = 10000;

/// The lanes available on this host (scalar always included, as the
/// oracle everything else is diffed against).
std::vector<simd::Lane> SupportedLanes() {
  std::vector<simd::Lane> lanes = {simd::Lane::kScalar};
  if (simd::LaneSupported(simd::Lane::kAvx2)) lanes.push_back(simd::Lane::kAvx2);
  return lanes;
}

/// Bitwise double equality (== would conflate +0.0 and -0.0).
bool SameBits(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

/// Independent statement of the canonical reduction semantics, written as
/// directly as possible: zero-pad to whole 64-element blocks, reduce each
/// block by a balanced stride-halving tree, combine block sums by the
/// same tree over the block count padded to a power of two.  The simd
/// layer's shared driver is NOT used here, so a bug in it cannot hide.
double ReferenceTreeReduce(std::vector<double> terms) {
  if (terms.empty()) return 0.0;
  terms.resize(((terms.size() + 63) / 64) * 64, 0.0);
  std::vector<double> sums;
  for (std::size_t begin = 0; begin < terms.size(); begin += 64) {
    double block[64];
    std::memcpy(block, terms.data() + begin, sizeof(block));
    for (std::size_t s = 32; s >= 1; s /= 2) {
      for (std::size_t i = 0; i < s; ++i) block[i] += block[i + s];
    }
    sums.push_back(block[0]);
  }
  std::size_t padded = 1;
  while (padded < sums.size()) padded *= 2;
  sums.resize(padded, 0.0);
  // Adjacent-pair folding: (b0+b1), (b2+b3), … — the contiguous balanced
  // tree the canonical semantics prescribes for combining block sums.
  while (sums.size() > 1) {
    std::vector<double> next(sums.size() / 2);
    for (std::size_t i = 0; i < next.size(); ++i) {
      next[i] = sums[2 * i] + sums[2 * i + 1];
    }
    sums = std::move(next);
  }
  return sums[0];
}

TEST(SimdDifferential, LaneNamesRoundTrip) {
  EXPECT_EQ(simd::LaneName(simd::Lane::kScalar), "scalar");
  EXPECT_EQ(simd::LaneName(simd::Lane::kAvx2), "avx2");
  EXPECT_TRUE(simd::LaneSupported(simd::Lane::kScalar));
  EXPECT_TRUE(simd::LaneSupported(simd::BestSupportedLane()));
}

TEST(SimdDifferential, SetActiveLaneClampsToSupported) {
  const simd::Lane before = simd::ActiveLane();
  EXPECT_EQ(simd::SetActiveLane(simd::Lane::kScalar), simd::Lane::kScalar);
  EXPECT_EQ(simd::ActiveLane(), simd::Lane::kScalar);
  // Requesting the best lane always succeeds; anything above it clamps.
  EXPECT_EQ(simd::SetActiveLane(simd::BestSupportedLane()),
            simd::BestSupportedLane());
  simd::SetActiveLane(before);
}

TEST(SimdDifferential, DotPairwiseMatchesOracleAndReference) {
  util::Rng rng(0x51D0D01ULL);
  const std::vector<simd::Lane> lanes = SupportedLanes();
  for (int trial = 0; trial < kInputs; ++trial) {
    // Mixed sizes: the embedding dimension (64), ragged tails, multiple
    // blocks, and wide magnitude spreads to exercise rounding.
    const std::size_t n = trial % 4 == 0
                              ? 64
                              : static_cast<std::size_t>(rng.NextBounded(200));
    std::vector<double> a(n);
    std::vector<double> b(n);
    std::vector<double> products(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.NextGaussian() * std::pow(10.0, rng.NextRange(-6.0, 6.0));
      b[i] = rng.NextGaussian();
      products[i] = a[i] * b[i];
    }
    const double reference = ReferenceTreeReduce(products);
    const double oracle =
        simd::DotPairwise(a.data(), b.data(), n, simd::Lane::kScalar);
    ASSERT_TRUE(SameBits(oracle, reference))
        << "scalar oracle diverged from the canonical semantics at n=" << n;
    for (simd::Lane lane : lanes) {
      const double got = simd::DotPairwise(a.data(), b.data(), n, lane);
      ASSERT_TRUE(SameBits(got, oracle))
          << simd::LaneName(lane) << " dot diverged at n=" << n << ": " << got
          << " vs " << oracle;
    }
  }
}

TEST(SimdDifferential, MatchLengthMatchesOracle) {
  util::Rng rng(0x3A7C4ULL);
  const std::vector<simd::Lane> lanes = SupportedLanes();
  for (int trial = 0; trial < kInputs; ++trial) {
    const std::size_t limit = static_cast<std::size_t>(rng.NextBounded(160));
    std::vector<std::uint8_t> a(limit + 1, 0);
    for (auto& byte : a) byte = static_cast<std::uint8_t>(rng.NextBounded(4));
    std::vector<std::uint8_t> b = a;
    // Plant the first mismatch at a controlled position (sometimes past
    // the limit, so full-match and every partial position are covered —
    // including inside and at the edge of the 32-byte vector steps).
    const std::size_t mismatch =
        static_cast<std::size_t>(rng.NextBounded(limit + 8));
    if (mismatch < limit) b[mismatch] ^= 0x5a;
    const std::size_t expected =
        simd::MatchLength(a.data(), b.data(), limit, simd::Lane::kScalar);
    ASSERT_EQ(expected, std::min(mismatch, limit));
    for (simd::Lane lane : lanes) {
      ASSERT_EQ(simd::MatchLength(a.data(), b.data(), limit, lane), expected)
          << simd::LaneName(lane) << " at limit=" << limit
          << " mismatch=" << mismatch;
    }
  }
}

/// Whole-path differential: drive the product code through each lane via
/// the dispatch override and require byte-identical artifacts.
class LaneRoundTrip : public ::testing::Test {
 protected:
  void TearDown() override { simd::SetActiveLane(saved_); }
  const simd::Lane saved_ = simd::ActiveLane();
};

TEST_F(LaneRoundTrip, CosineIdenticalAcrossLanes) {
  util::Rng rng(0xC051ULL);
  for (int trial = 0; trial < kInputs; ++trial) {
    genai::Vec a;
    genai::Vec b;
    for (double& v : a) v = rng.NextGaussian();
    for (double& v : b) v = rng.NextGaussian();
    simd::SetActiveLane(simd::Lane::kScalar);
    const double expected = genai::Cosine(a, b);
    for (simd::Lane lane : SupportedLanes()) {
      simd::SetActiveLane(lane);
      ASSERT_TRUE(SameBits(genai::Cosine(a, b), expected))
          << simd::LaneName(lane) << " cosine diverged at trial " << trial;
    }
  }
}

TEST_F(LaneRoundTrip, Lz77TokenizeIdenticalAcrossLanes) {
  util::Rng rng(0x1277ULL);
  for (int trial = 0; trial < kInputs; ++trial) {
    // Mix compressible (tiny alphabet, planted repeats) and random data.
    const std::size_t size = static_cast<std::size_t>(rng.NextBounded(400));
    util::Bytes data(size);
    const std::uint64_t alphabet = 2 + rng.NextBounded(250);
    for (auto& byte : data) {
      byte = static_cast<std::uint8_t>(rng.NextBounded(alphabet));
    }
    if (size > 16 && rng.NextBool(0.5)) {
      const std::size_t span = 1 + rng.NextBounded(size / 2);
      std::memcpy(data.data() + size - span, data.data(), span);
    }
    simd::SetActiveLane(simd::Lane::kScalar);
    const util::Bytes expected = compress::Lz77Tokenize(data);
    auto round = compress::Lz77Reconstruct(expected, data.size());
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(round.value(), data);
    for (simd::Lane lane : SupportedLanes()) {
      simd::SetActiveLane(lane);
      ASSERT_EQ(compress::Lz77Tokenize(data), expected)
          << simd::LaneName(lane) << " op stream diverged at trial " << trial;
    }
  }
}

TEST_F(LaneRoundTrip, DiffusionRenderIdenticalAcrossLanes) {
  const genai::DiffusionModel model(genai::ImageModels().front());
  struct Case {
    const char* prompt;
    int width;
    int height;
    int steps;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {"a goldfish in a bowl", 96, 64, 28, 7},
      {"small world web of ai", 33, 17, 4, 99},  // ragged row widths
      {"night city neon rain", 128, 128, 50, 3141},
  };
  for (const Case& c : cases) {
    simd::SetActiveLane(simd::Lane::kScalar);
    auto expected = model.Generate(c.prompt, c.width, c.height, c.steps, c.seed);
    ASSERT_TRUE(expected.ok());
    for (simd::Lane lane : SupportedLanes()) {
      simd::SetActiveLane(lane);
      auto got = model.Generate(c.prompt, c.width, c.height, c.steps, c.seed);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got.value().image.data(), expected.value().image.data())
          << simd::LaneName(lane) << " rendered different bytes for \""
          << c.prompt << "\"";
      ASSERT_TRUE(SameBits(
          metrics::ClipScore(c.prompt, got.value().image),
          metrics::ClipScore(c.prompt, expected.value().image)));
    }
  }
}

TEST_F(LaneRoundTrip, SwzCompressIdenticalAcrossLanes) {
  // End to end through the coder: tokenize + Huffman + framing.
  const std::string page(
      "<html><body>the small world web of ai — prompts, not pixels; "
      "prompts, not pixels; prompts, not pixels</body></html>");
  util::Bytes data(page.begin(), page.end());
  simd::SetActiveLane(simd::Lane::kScalar);
  const util::Bytes expected = compress::SwzCompress(data);
  for (simd::Lane lane : SupportedLanes()) {
    simd::SetActiveLane(lane);
    ASSERT_EQ(compress::SwzCompress(data), expected) << simd::LaneName(lane);
    auto back = compress::SwzDecompress(expected);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back.value(), data);
  }
}

}  // namespace
}  // namespace sww
