// simd_differential_test — randomized differential suites for the SIMD
// compute fast lanes: the scalar lane is the in-tree oracle, and the AVX2
// lane must agree with it TO THE BIT on 10k randomized inputs per kernel.
// Nothing here uses tolerances: a single flipped bit in any lane is a
// failure.
//
// Layers covered:
//   * util::simd kernels directly — DotPairwise (plus an independent
//     re-implementation of the canonical fixed-tree semantics),
//     MatchLength, RenderPixelRow and AddLuminanceSpans (every 24-bit
//     colour, and an independent per-pixel luminance);
//   * whole product paths driven through each lane via SetActiveLane or
//     an explicit lane — genai::Cosine, the LZ77 tokenizer, a full
//     diffusion render, ReadCellField (against the per-cell
//     Image::MeanLuminance it replaced) and the SWZ coder.
//
// The suite is also run under ASAN/UBSAN and with SWW_SIMD forced to each
// lane by the simd-differential CI job.
#include "util/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/swz.hpp"
#include "genai/diffusion.hpp"
#include "genai/image.hpp"
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

TEST(SimdDifferential, RenderPixelRowMatchesOracle) {
  // Every width residue mod 8 (1..700), carriers and gains wide enough to
  // clamp at both 0 and 255, and gains above 1.
  util::Rng rng(0x9E7D3ULL);
  const std::vector<simd::Lane> lanes = SupportedLanes();
  std::size_t clamped_low = 0;
  std::size_t clamped_high = 0;
  for (int trial = 0; trial < kInputs; ++trial) {
    const std::size_t width = trial < 700 ? static_cast<std::size_t>(trial + 1)
                                          : 1 + static_cast<std::size_t>(rng.NextBounded(700));
    const double spread = rng.NextRange(10.0, 400.0);
    std::vector<double> columns[4];
    for (std::vector<double>& column : columns) {
      column.resize(width);
      for (double& v : column) v = rng.NextRange(-spread, spread);
    }
    simd::PixelRow row;
    row.top_left = columns[0].data();
    row.top_right = columns[1].data();
    row.bottom_left = columns[2].data();
    row.bottom_right = columns[3].data();
    row.ty = rng.NextDouble();
    row.sy = 1 - row.ty;
    row.offset = 128.0;
    row.texture_seed = rng.NextU64();
    row.y = rng.NextBounded(4096);
    row.texture_lo = -9.0;
    row.texture_hi = 9.0;
    for (double& gain : row.gain) gain = rng.NextRange(0.5, 2.5);
    std::vector<std::uint8_t> expected(3 * width);
    simd::RenderPixelRow(row, width, expected.data(), simd::Lane::kScalar);
    for (std::uint8_t byte : expected) {
      clamped_low += byte == 0;
      clamped_high += byte == 255;
    }
    for (simd::Lane lane : lanes) {
      std::vector<std::uint8_t> got(3 * width + 1, 0xA5);  // + guard byte
      simd::RenderPixelRow(row, width, got.data(), lane);
      ASSERT_EQ(got.back(), 0xA5) << simd::LaneName(lane) << " wrote past the row";
      got.pop_back();
      ASSERT_EQ(got, expected) << simd::LaneName(lane) << " row diverged at width "
                               << width;
    }
  }
  EXPECT_GT(clamped_low, 0u);
  EXPECT_GT(clamped_high, 0u);
}

TEST(SimdDifferential, RenderPixelRowKeepsTheOperationOrder) {
  // Random rows almost never land within an ulp of a byte boundary, so a
  // lane that reassociated the sums would still pass the test above.
  // These rows do: sub-ulp carriers and texture on an integer offset, and
  // near-integer carriers that cancel on a zero offset, so truncation
  // exposes any change in the order of the adds.
  util::Rng rng(0x0DE4ULL);
  const std::vector<simd::Lane> lanes = SupportedLanes();
  constexpr std::size_t kWidth = 67;  // eight steps and a tail
  for (int trial = 0; trial < kInputs; ++trial) {
    const bool cancel = trial % 2 == 1;
    std::vector<double> columns[4];
    for (std::vector<double>& column : columns) {
      column.resize(kWidth);
      for (double& v : column) {
        const double tiny = rng.NextGaussian() * 0x1.0p-46;
        v = cancel ? static_cast<double>(rng.NextBounded(121)) - 60.0 + tiny : tiny;
      }
    }
    simd::PixelRow row;
    row.top_left = columns[0].data();
    row.top_right = columns[1].data();
    row.bottom_left = columns[2].data();
    row.bottom_right = columns[3].data();
    row.ty = cancel ? 0.25 * static_cast<double>(1 + rng.NextBounded(3)) : rng.NextDouble();
    row.sy = 1 - row.ty;
    row.offset = cancel ? 0.0 : static_cast<double>(1 + rng.NextBounded(200));
    row.texture_seed = rng.NextU64();
    row.y = rng.NextBounded(64);
    row.texture_lo = cancel ? 0.0 : rng.NextGaussian() * 0x1.0p-45;
    row.texture_hi = cancel ? 0.0 : rng.NextGaussian() * 0x1.0p-45;
    std::vector<std::uint8_t> expected(3 * kWidth);
    simd::RenderPixelRow(row, kWidth, expected.data(), simd::Lane::kScalar);
    for (simd::Lane lane : lanes) {
      std::vector<std::uint8_t> got(3 * kWidth);
      simd::RenderPixelRow(row, kWidth, got.data(), lane);
      ASSERT_EQ(got, expected) << simd::LaneName(lane) << " row diverged at trial "
                               << trial;
    }
  }
}

/// The integer BT.601 luminance, stated independently of util::simd.
std::uint64_t ReferenceLuminance(const std::uint8_t* pixel) {
  return (299 * pixel[0] + 587 * pixel[1] + 114 * pixel[2]) / 1000;
}

TEST(SimdDifferential, AddLuminanceSpansMatchesOracle) {
  util::Rng rng(0x1D3A5ULL);
  const std::vector<simd::Lane> lanes = SupportedLanes();
  for (int trial = 0; trial < kInputs; ++trial) {
    const int width = trial < 700 ? trial + 1 : 1 + static_cast<int>(rng.NextBounded(700));
    std::vector<std::uint8_t> rgb(3 * static_cast<std::size_t>(width));
    // Some rows saturate, so the largest weighted sums are covered.
    const std::uint64_t floor = trial % 5 == 0 ? 200 : 0;
    for (std::uint8_t& byte : rgb) {
      byte = static_cast<std::uint8_t>(floor + rng.NextBounded(256 - floor));
    }
    // Ascending bounds over [0, width], empty spans allowed.
    const std::size_t spans = 1 + static_cast<std::size_t>(rng.NextBounded(20));
    std::vector<int> bounds(spans + 1);
    for (int& b : bounds) b = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(width) + 1));
    std::sort(bounds.begin(), bounds.end());
    std::vector<std::uint64_t> expected(spans, 7);  // sums are added to
    for (std::size_t k = 0; k < spans; ++k) {
      for (int x = bounds[k]; x < bounds[k + 1]; ++x) {
        expected[k] += ReferenceLuminance(rgb.data() + 3 * x);
      }
    }
    for (simd::Lane lane : lanes) {
      std::vector<std::uint64_t> got(spans, 7);
      simd::AddLuminanceSpans(rgb.data(), bounds.data(), spans, got.data(), lane);
      ASSERT_EQ(got, expected) << simd::LaneName(lane) << " at width " << width;
    }
  }
}

TEST(SimdDifferential, AddLuminanceSpansExactForEveryColour) {
  // All 2^24 colours, 65,536 per row in 8-pixel spans: the vector lane's
  // floor(÷1000) is exact over every weighted sum a pixel can produce.
  constexpr int kWidth = 1 << 16;
  std::vector<std::uint8_t> rgb(3 * kWidth);
  std::vector<int> bounds(kWidth / 8 + 1);
  for (std::size_t k = 0; k < bounds.size(); ++k) bounds[k] = static_cast<int>(8 * k);
  for (int r = 0; r < 256; ++r) {
    for (int i = 0; i < kWidth; ++i) {
      rgb[3 * i] = static_cast<std::uint8_t>(r);
      rgb[3 * i + 1] = static_cast<std::uint8_t>(i >> 8);
      rgb[3 * i + 2] = static_cast<std::uint8_t>(i & 0xff);
    }
    std::vector<std::uint64_t> expected(kWidth / 8, 0);
    for (int i = 0; i < kWidth; ++i) expected[i / 8] += ReferenceLuminance(rgb.data() + 3 * i);
    for (simd::Lane lane : SupportedLanes()) {
      std::vector<std::uint64_t> got(kWidth / 8, 0);
      simd::AddLuminanceSpans(rgb.data(), bounds.data(), kWidth / 8, got.data(), lane);
      ASSERT_EQ(got, expected) << simd::LaneName(lane) << " at red " << r;
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
      {"tiny", 7, 3, 15, 5},                     // narrower than one step
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

/// ReadCellField as it was before the row path: the per-cell mean of
/// Image::MeanLuminance, minus 128.
std::vector<double> ReferenceCellField(const genai::Image& image) {
  std::vector<double> field;
  const double cell_w = static_cast<double>(image.width()) / genai::kSemanticGrid;
  const double cell_h = static_cast<double>(image.height()) / genai::kSemanticGrid;
  for (int cy = 0; cy < genai::kSemanticGrid; ++cy) {
    for (int cx = 0; cx < genai::kSemanticGrid; ++cx) {
      const int x0 = static_cast<int>(cx * cell_w);
      const int y0 = static_cast<int>(cy * cell_h);
      const int x1 = std::max(static_cast<int>((cx + 1) * cell_w), x0 + 1);
      const int y1 = std::max(static_cast<int>((cy + 1) * cell_h), y0 + 1);
      field.push_back(image.MeanLuminance(x0, y0, x1, y1) - 128.0);
    }
  }
  return field;
}

TEST(SimdDifferential, ReadCellFieldMatchesPerCellMeans) {
  // Sizes below, at and above the 16-cell grid in each dimension: below
  // it cells overlap and the per-cell path runs; at or above it the rows
  // are summed per cell in each lane.
  const int sizes[][2] = {{1, 1},   {15, 40},  {40, 15},  {16, 16},  {17, 13},
                          {33, 17}, {64, 48},  {255, 16}, {256, 192}, {700, 31}};
  util::Rng rng(0xCE11ULL);
  for (const auto& size : sizes) {
    genai::Image image(size[0], size[1]);
    for (int y = 0; y < size[1]; ++y) {
      for (int x = 0; x < size[0]; ++x) {
        image.Set(x, y, genai::Pixel{static_cast<std::uint8_t>(rng.NextBounded(256)),
                                     static_cast<std::uint8_t>(rng.NextBounded(256)),
                                     static_cast<std::uint8_t>(rng.NextBounded(256))});
      }
    }
    const std::vector<double> expected = ReferenceCellField(image);
    for (simd::Lane lane : SupportedLanes()) {
      const std::vector<double> got = genai::ReadCellField(image, lane);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t c = 0; c < got.size(); ++c) {
        ASSERT_TRUE(SameBits(got[c], expected[c]))
            << simd::LaneName(lane) << " cell " << c << " of " << size[0] << "x"
            << size[1] << ": " << got[c] << " vs " << expected[c];
      }
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
