// simd.hpp — vectorized compute fast lanes with runtime CPU dispatch.
//
// Four inner loops of a generative fetch get a vector kernel, each
// because its AVX2 lane clears 2x over the scalar loop at the size the
// product runs it (bench_simd_fastlane, interleaved timing):
//
//   * DotPairwise — the 64-wide embedding dot behind every score;
//   * MatchLength — the LZ77 match extender of the SWZ tokenizer;
//   * RenderPixelRow — a row of RenderField: carrier, counter-hash
//     texture, gains, clamp and the RGB interleave.  The texture's two
//     64-bit multiplies per pixel dominate the scalar row;
//   * AddLuminanceSpans — a row of ReadCellField, the §7 image digest:
//     integer BT.601 luminance summed per cell.
//
// Loops that do not clear 2x stay plain C++ in their callers
// (docs/performance.md §SIMD).  The repository's core invariant holds
// here too: *every* modeled byte and score is identical on every
// machine, at every thread count, and in every lane.
//
// Two lanes exist:
//
//   * kScalar — portable C++, always available.  This is the in-tree
//     ORACLE: the differential suites and benches compare the AVX2 lane
//     against it, and `SWW_SIMD=scalar` forces it at runtime.
//   * kAvx2   — 4 doubles / 32 bytes per vector, selected when the CPU
//     reports AVX2 support.
//
// Determinism contract (docs/performance.md §SIMD):
//
//   1. MatchLength returns the exact common-prefix length in every lane.
//   2. DotPairwise has no natural scalar order; instead the *fixed
//      pairwise tree* below is the canonical semantics, and both lanes
//      compute it:
//
//        - the input is split into 64-element blocks, the last block
//          zero-padded; each block is reduced by a balanced
//          stride-halving tree (s[i] += s[i+32], then +16, +8, +4, +2,
//          +1) — exactly the tree a register-resident vector reduction
//          produces;
//        - block sums are combined by the contiguous adjacent-pair
//          balanced tree ((b0+b1)+(b2+b3))+…, the block count padded to
//          a power of two with +0.0 sums.
//
//      `genai::Dot` adopts this as its definition, so embedding scores
//      are identical in both lanes — and the AVX2 lane is simply fast,
//      not "fast but approximately equal".
//   3. RenderPixelRow performs the scalar pixel's operations one for
//      one: separate multiplies and adds in the formula's left-to-right
//      order (the build passes -ffp-contract=off, so no FMA fuses them);
//      each 64-bit product of the counter hash is built from three
//      32x32->64 multiplies; the 53-bit `h >> 11` converts to double
//      exactly through two 2^52 magic-number conversions; the clamp is
//      max, then min, then a truncating convert; a scalar tail covers
//      width % 8.
//   4. AddLuminanceSpans is integer arithmetic: the AVX2 lane's
//      floor(n / 1000) is a multiply-high that equals the division for
//      every weighted sum a pixel can produce.
//
// Dispatch: ActiveLane() resolves once from CPUID, overridable with
// SWW_SIMD=scalar|avx2 (clamped to what the host supports).  Every
// kernel also takes an explicit Lane overload so differential tests and
// benches can pin lanes without touching process state; the row kernels
// take only that overload, and their callers read ActiveLane() once per
// image.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sww::util::simd {

enum class Lane : int {
  kScalar = 0,  ///< portable C++ — the oracle lane
  kAvx2 = 1,    ///< 256-bit vectors
};

/// Stable lowercase lane name ("scalar", "avx2") — the same tokens
/// SWW_SIMD accepts.
std::string_view LaneName(Lane lane);

/// True when this build *and* this CPU can execute `lane`.
bool LaneSupported(Lane lane);

/// The best lane the host CPU supports (kScalar on non-x86 builds).
Lane BestSupportedLane();

/// The lane product code dispatches to: BestSupportedLane() unless the
/// SWW_SIMD environment variable forces a (supported) lower lane.
/// Resolved once, then cached.
Lane ActiveLane();

/// Override the active lane (clamped to LaneSupported); used by the
/// differential tests to drive whole product paths — tokenizer, diffusion
/// render — through each lane in one process.  Returns the lane actually
/// installed.
Lane SetActiveLane(Lane lane);

/// Dot product of a[0..n) and b[0..n) in the canonical pairwise
/// fixed-tree order described above.  Bit-identical across lanes.
double DotPairwise(const double* a, const double* b, std::size_t n, Lane lane);
double DotPairwise(const double* a, const double* b, std::size_t n);

/// Length of the common prefix of a[0..limit) and b[0..limit): the LZ77
/// match extender, comparing 32 bytes per step in the AVX2 lane.
/// Never reads past a+limit / b+limit.
std::size_t MatchLength(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t limit, Lane lane);
std::size_t MatchLength(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t limit);

/// The inputs of one pixel row of genai's RenderField.  For column x the
/// row's luminance is
///
///   offset + (top_left[x]·sy + top_right[x]·sy + bottom_left[x]·ty
///             + bottom_right[x]·ty)
///          + CounterRange(texture_seed, x, y, texture_lo, texture_hi)
///
/// evaluated left to right, and channel c is that luminance times
/// gain[c], clamped to [0, 255] and truncated to a byte.
struct PixelRow {
  const double* top_left = nullptr;
  const double* top_right = nullptr;
  const double* bottom_left = nullptr;
  const double* bottom_right = nullptr;
  double sy = 0.0;  ///< 1 - ty
  double ty = 0.0;
  double offset = 0.0;
  std::uint64_t texture_seed = 0;
  std::uint64_t y = 0;  ///< the texture's row counter
  double texture_lo = 0.0;
  double texture_hi = 0.0;
  double gain[3] = {1.0, 1.0, 1.0};  ///< r, g, b
};

/// Write `width` RGB8 pixels of `row` to out[0..3·width).  Byte-identical
/// across lanes; the AVX2 lane renders 8 pixels per step.
void RenderPixelRow(const PixelRow& row, std::size_t width, std::uint8_t* out,
                    Lane lane);

/// For each span k < spans, add to sums[k] the integer BT.601 luminance
/// (299·r + 587·g + 114·b) / 1000 of the RGB8 pixels [bounds[k],
/// bounds[k + 1]) of `rgb` (bounds ascending, spans + 1 entries).  Exact
/// in every lane; the AVX2 lane reads 8 pixels per step.
void AddLuminanceSpans(const std::uint8_t* rgb, const int* bounds,
                       std::size_t spans, std::uint64_t* sums, Lane lane);

}  // namespace sww::util::simd
