#include "util/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/log.hpp"

#if defined(__x86_64__)
#define SWW_SIMD_X86 1
#include <immintrin.h>
#endif

namespace sww::util::simd {

namespace {

// ---------------------------------------------------------------------------
// Canonical fixed-tree reduction driver (shared by every lane).
//
// The reduction semantics are defined ONCE, here: 64-element blocks, each
// reduced by a balanced stride-halving tree, block sums combined by the
// contiguous adjacent-pair tree TreeOverBlocks builds, the block count
// padded to a power of two with +0.0.
// The two lanes differ only in how they evaluate one full 64-element
// block — a scalar buffer or 16 AVX2 vectors — and both perform the
// identical tree, so the result is bit-identical by construction rather
// than by tolerance.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kBlock = 64;

template <typename BlockFn>
double TreeOverBlocks(std::size_t first, std::size_t len, std::size_t blocks,
                      const BlockFn& block) {
  if (first >= blocks) return 0.0;  // an all-padding subtree sums to +0.0
  if (len == 1) return block(first);
  const std::size_t half = len / 2;
  return TreeOverBlocks(first, half, blocks, block) +
         TreeOverBlocks(first + half, half, blocks, block);
}

/// Evaluate one (possibly ragged) block of a dot product with `block64`,
/// a lane's full-block kernel.  The ragged tail is zero-padded, so its
/// missing product terms enter the tree as +0.0 — the canonical padding.
template <typename Block64>
double DotWithBlocks(const double* a, const double* b, std::size_t n,
                     const Block64& block64) {
  if (n == 0) return 0.0;
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  return TreeOverBlocks(0, std::bit_ceil(blocks), blocks, [&](std::size_t k) {
    const std::size_t begin = k * kBlock;
    if (begin + kBlock <= n) return block64(a + begin, b + begin);
    double pa[kBlock] = {};
    double pb[kBlock] = {};
    std::memcpy(pa, a + begin, (n - begin) * sizeof(double));
    std::memcpy(pb, b + begin, (n - begin) * sizeof(double));
    return block64(pa, pb);
  });
}

// ---------------------------------------------------------------------------
// Scalar lane — the oracle.
// ---------------------------------------------------------------------------

double DotBlock64Scalar(const double* a, const double* b) {
  double buf[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) buf[i] = a[i] * b[i];
  for (std::size_t s = kBlock / 2; s >= 1; s >>= 1) {
    for (std::size_t i = 0; i < s; ++i) buf[i] += buf[i + s];
  }
  return buf[0];
}

std::size_t MatchLengthScalar(const std::uint8_t* a, const std::uint8_t* b,
                              std::size_t limit) {
  std::size_t i = 0;
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

#if defined(SWW_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 lane (function-level target attribute; dispatched at runtime).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) double DotBlock64Avx2(const double* a,
                                                      const double* b) {
  __m256d v[16];
  for (int i = 0; i < 16; ++i) {
    v[i] = _mm256_mul_pd(_mm256_loadu_pd(a + 4 * i), _mm256_loadu_pd(b + 4 * i));
  }
  // Element strides 32, 16, 8, 4 are whole-vector adds; strides 2 and 1
  // cross the 4-wide vector: low+high 128-bit halves, then a swap-add.
  for (int i = 0; i < 8; ++i) v[i] = _mm256_add_pd(v[i], v[i + 8]);
  for (int i = 0; i < 4; ++i) v[i] = _mm256_add_pd(v[i], v[i + 4]);
  for (int i = 0; i < 2; ++i) v[i] = _mm256_add_pd(v[i], v[i + 2]);
  v[0] = _mm256_add_pd(v[0], v[1]);
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(v[0]),
                                  _mm256_extractf128_pd(v[0], 1));
  const __m128d high = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, high));
}

__attribute__((target("avx2"))) std::size_t MatchLengthAvx2(
    const std::uint8_t* a, const std::uint8_t* b, std::size_t limit) {
  std::size_t i = 0;
  for (; i + 32 <= limit; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const std::uint32_t eq = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xffffffffu) {
      return i + static_cast<std::size_t>(__builtin_ctz(~eq));
    }
  }
  return i + MatchLengthScalar(a + i, b + i, limit - i);
}

#endif  // SWW_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

Lane DetectBestLane() {
#if defined(SWW_SIMD_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Lane::kAvx2;
#endif
  return Lane::kScalar;
}

Lane ResolveInitialLane() {
  const Lane best = DetectBestLane();
  const char* env = std::getenv("SWW_SIMD");
  if (env == nullptr || *env == '\0') return best;
  const std::string_view requested(env);
  Lane lane = best;
  if (requested == "scalar") {
    lane = Lane::kScalar;
  } else if (requested == "avx2") {
    lane = Lane::kAvx2;
  } else {
    LogWarn("util.simd", "unknown SWW_SIMD value \"" + std::string(requested) +
                             "\", using " + std::string(LaneName(best)));
    return lane;
  }
  if (static_cast<int>(lane) > static_cast<int>(best)) {
    LogWarn("util.simd", "SWW_SIMD=" + std::string(requested) +
                             " not supported on this host, using " +
                             std::string(LaneName(best)));
    return best;
  }
  return lane;
}

std::atomic<int>& ActiveLaneCell() {
  static std::atomic<int> cell{static_cast<int>(ResolveInitialLane())};
  return cell;
}

}  // namespace

std::string_view LaneName(Lane lane) {
  switch (lane) {
    case Lane::kScalar:
      return "scalar";
    case Lane::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool LaneSupported(Lane lane) {
  return static_cast<int>(lane) <= static_cast<int>(BestSupportedLane());
}

Lane BestSupportedLane() {
  static const Lane best = DetectBestLane();
  return best;
}

Lane ActiveLane() {
  return static_cast<Lane>(ActiveLaneCell().load(std::memory_order_relaxed));
}

Lane SetActiveLane(Lane lane) {
  if (!LaneSupported(lane)) lane = BestSupportedLane();
  ActiveLaneCell().store(static_cast<int>(lane), std::memory_order_relaxed);
  return lane;
}

double DotPairwise(const double* a, const double* b, std::size_t n, Lane lane) {
#if defined(SWW_SIMD_X86)
  if (lane == Lane::kAvx2) return DotWithBlocks(a, b, n, DotBlock64Avx2);
#else
  (void)lane;
#endif
  return DotWithBlocks(a, b, n, DotBlock64Scalar);
}

double DotPairwise(const double* a, const double* b, std::size_t n) {
  return DotPairwise(a, b, n, ActiveLane());
}

std::size_t MatchLength(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t limit, Lane lane) {
#if defined(SWW_SIMD_X86)
  if (lane == Lane::kAvx2) return MatchLengthAvx2(a, b, limit);
#else
  (void)lane;
#endif
  return MatchLengthScalar(a, b, limit);
}

std::size_t MatchLength(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t limit) {
  return MatchLength(a, b, limit, ActiveLane());
}

}  // namespace sww::util::simd
