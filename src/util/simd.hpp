// simd.hpp — vectorized compute fast lanes with runtime CPU dispatch.
//
// Two inner loops of a generative fetch get a vector kernel: the
// embedding dot product and the LZ77 match extender of the SWZ
// tokenizer.  Both clear 2x over the scalar loop with AVX2 (see
// bench_simd_fastlane); loops that do not stay plain C++ in their
// callers (docs/performance.md §SIMD).  The repository's core invariant
// holds here too: *every* modeled byte and score is identical on every
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
//
// Dispatch: ActiveLane() resolves once from CPUID, overridable with
// SWW_SIMD=scalar|avx2 (clamped to what the host supports).  Every
// kernel also takes an explicit Lane overload so differential tests and
// benches can pin lanes without touching process state.
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

}  // namespace sww::util::simd
