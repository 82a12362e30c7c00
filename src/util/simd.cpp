#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/log.hpp"
#include "util/rng.hpp"

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

std::uint8_t ClampByte(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

/// One pixel of a PixelRow: the per-pixel formula the AVX2 lane matches.
void RenderPixelScalar(const PixelRow& row, std::size_t x, std::uint8_t* out) {
  const double value = row.top_left[x] * row.sy + row.top_right[x] * row.sy +
                       row.bottom_left[x] * row.ty + row.bottom_right[x] * row.ty;
  const double texture = CounterRange(row.texture_seed, x, row.y,
                                      row.texture_lo, row.texture_hi);
  const double luminance = row.offset + value + texture;
  for (int c = 0; c < 3; ++c) out[3 * x + c] = ClampByte(luminance * row.gain[c]);
}

void RenderPixelRowScalar(const PixelRow& row, std::size_t width,
                          std::uint8_t* out) {
  for (std::size_t x = 0; x < width; ++x) RenderPixelScalar(row, x, out);
}

std::uint32_t LuminanceScalar(const std::uint8_t* pixel) {
  return (299u * pixel[0] + 587u * pixel[1] + 114u * pixel[2]) / 1000u;
}

void AddLuminanceSpansScalar(const std::uint8_t* rgb, const int* bounds,
                             std::size_t spans, std::uint64_t* sums) {
  for (std::size_t k = 0; k < spans; ++k) {
    std::uint64_t sum = 0;
    for (int x = bounds[k]; x < bounds[k + 1]; ++x) sum += LuminanceScalar(rgb + 3 * x);
    sums[k] += sum;
  }
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

// util::CounterHash's column and row multipliers, and SplitMix64's
// increment and finalizer multipliers (util/rng.hpp).
inline constexpr std::uint64_t kColumnMul = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kRowMul = 0x94d049bb133111ebULL;
inline constexpr std::uint64_t kMixIncrement = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kMix2 = 0x94d049bb133111ebULL;

/// The low 64 bits of a·m per lane, from three 32x32->64 multiplies.
__attribute__((target("avx2"))) inline __m256i MulLow64(__m256i a,
                                                        std::uint64_t m) {
  const __m256i m_lo = _mm256_set1_epi64x(static_cast<long long>(m & 0xffffffffu));
  const __m256i m_hi = _mm256_set1_epi64x(static_cast<long long>(m >> 32));
  const __m256i low = _mm256_mul_epu32(a, m_lo);
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m_lo), _mm256_mul_epu32(a, m_hi));
  return _mm256_add_epi64(low, _mm256_slli_epi64(cross, 32));
}

/// CounterRange's unit value, (CounterHash >> 11) · 2^-53, from counter
/// states that already include SplitMix64's increment.  The 53-bit
/// integer converts exactly: each 32-bit half becomes a double through
/// the 2^52 magic number, and high·2^32 + low is exact below 2^53.
__attribute__((target("avx2"))) inline __m256d UnitFromStateAvx2(__m256i z) {
  z = MulLow64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), kMix1);
  z = MulLow64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), kMix2);
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
  const __m256i bits = _mm256_srli_epi64(z, 11);
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d high = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits, 32), magic)), two52);
  const __m256d low = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_blend_epi32(bits, magic, 0xaa)), two52);
  const __m256d value = _mm256_add_pd(_mm256_mul_pd(high, _mm256_set1_pd(0x1.0p32)), low);
  return _mm256_mul_pd(value, _mm256_set1_pd(0x1.0p-53));
}

/// Eight pixels per step: two 4-wide halves of carrier, texture, offset
/// and gains in the scalar order; clamp by max then min; truncate; pack
/// the channels to bytes and interleave them to RGB with pshufb.
__attribute__((target("avx2"))) void RenderPixelRowAvx2(const PixelRow& row,
                                                        std::size_t width,
                                                        std::uint8_t* out) {
  const __m256d sy = _mm256_set1_pd(row.sy);
  const __m256d ty = _mm256_set1_pd(row.ty);
  const __m256d offset = _mm256_set1_pd(row.offset);
  const __m256d texture_lo = _mm256_set1_pd(row.texture_lo);
  const __m256d texture_span = _mm256_set1_pd(row.texture_hi - row.texture_lo);
  const __m256d gain[3] = {_mm256_set1_pd(row.gain[0]), _mm256_set1_pd(row.gain[1]),
                           _mm256_set1_pd(row.gain[2])};
  const __m256d zero = _mm256_setzero_pd();
  const __m256d top = _mm256_set1_pd(255.0);
  const __m128i rg_first =
      _mm_setr_epi8(0, 8, -1, 1, 9, -1, 2, 10, -1, 3, 11, -1, 4, 12, -1, 5);
  const __m128i b_first =
      _mm_setr_epi8(-1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1);
  const __m128i rg_second =
      _mm_setr_epi8(13, -1, 6, 14, -1, 7, 15, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m128i b_second =
      _mm_setr_epi8(-1, 5, -1, -1, 6, -1, -1, 7, -1, -1, -1, -1, -1, -1, -1, -1);

  // Counter states of columns x..x+7 (wrapping, as in CounterHash), with
  // SplitMix64's increment folded in; each step moves x by 8.
  const std::uint64_t base = row.texture_seed + kRowMul * (row.y + 1) + kMixIncrement;
  auto state_at = [&](std::uint64_t column) {
    return static_cast<long long>(base + kColumnMul * (column + 1));
  };
  __m256i state[2] = {
      _mm256_setr_epi64x(state_at(0), state_at(1), state_at(2), state_at(3)),
      _mm256_setr_epi64x(state_at(4), state_at(5), state_at(6), state_at(7))};
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(kColumnMul * 8));

  std::size_t x = 0;
  for (; x + 8 <= width; x += 8) {
    __m128i words[3];
    __m256d luminance[2];
    for (int half = 0; half < 2; ++half) {
      const std::size_t i = x + 4 * static_cast<std::size_t>(half);
      __m256d value = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(row.top_left + i), sy),
                                    _mm256_mul_pd(_mm256_loadu_pd(row.top_right + i), sy));
      value = _mm256_add_pd(value, _mm256_mul_pd(_mm256_loadu_pd(row.bottom_left + i), ty));
      value = _mm256_add_pd(value, _mm256_mul_pd(_mm256_loadu_pd(row.bottom_right + i), ty));
      const __m256d texture = _mm256_add_pd(
          texture_lo, _mm256_mul_pd(UnitFromStateAvx2(state[half]), texture_span));
      luminance[half] = _mm256_add_pd(_mm256_add_pd(offset, value), texture);
      state[half] = _mm256_add_epi64(state[half], step);
    }
    for (int c = 0; c < 3; ++c) {
      __m128i quads[2];
      for (int half = 0; half < 2; ++half) {
        const __m256d scaled = _mm256_mul_pd(luminance[half], gain[c]);
        quads[half] = _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(scaled, zero), top));
      }
      words[c] = _mm_packs_epi32(quads[0], quads[1]);
    }
    const __m128i rg = _mm_packus_epi16(words[0], words[1]);  // r0..r7 g0..g7
    const __m128i bb = _mm_packus_epi16(words[2], words[2]);  // b0..b7 twice
    std::uint8_t* dst = out + 3 * x;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_or_si128(_mm_shuffle_epi8(rg, rg_first),
                                  _mm_shuffle_epi8(bb, b_first)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 16),
                     _mm_or_si128(_mm_shuffle_epi8(rg, rg_second),
                                  _mm_shuffle_epi8(bb, b_second)));
  }
  for (; x < width; ++x) RenderPixelScalar(row, x, out);
}

/// Eight pixels per step: pshufb spreads (r, g) and (b, 0) into 16-bit
/// pairs, two madds form 299r + 587g + 114b per pixel, and
/// floor(n / 1000) = floor(floor(n / 8) / 125) = (floor(n / 8) · 33555)
/// >> 22, exact for every n <= 255000 (checked exhaustively).  A span's
/// lanes and its 32-bit total hold 255 per pixel exactly for spans below
/// 2^24 pixels; ReadCellField's spans are a sixteenth of a row.
__attribute__((target("avx2"))) void AddLuminanceSpansAvx2(const std::uint8_t* rgb,
                                                           const int* bounds,
                                                           std::size_t spans,
                                                           std::uint64_t* sums) {
  // Low lane: pixels 0-3 from bytes 0..15; high lane: pixels 4-7 from
  // bytes 8..23, so no load reaches past the step's 24 bytes.
  const __m256i rg_pick = _mm256_setr_epi8(
      0, -1, 1, -1, 3, -1, 4, -1, 6, -1, 7, -1, 9, -1, 10, -1,
      4, -1, 5, -1, 7, -1, 8, -1, 10, -1, 11, -1, 13, -1, 14, -1);
  const __m256i b_pick = _mm256_setr_epi8(
      2, -1, -1, -1, 5, -1, -1, -1, 8, -1, -1, -1, 11, -1, -1, -1,
      6, -1, -1, -1, 9, -1, -1, -1, 12, -1, -1, -1, 15, -1, -1, -1);
  const __m256i rg_weights = _mm256_set1_epi32(299 | (587 << 16));
  const __m256i b_weights = _mm256_set1_epi32(114);
  const __m256i reciprocal = _mm256_set1_epi32(33555);
  for (std::size_t k = 0; k < spans; ++k) {
    int x = bounds[k];
    const int end = bounds[k + 1];
    __m256i acc = _mm256_setzero_si256();
    for (; x + 8 <= end; x += 8) {
      const std::uint8_t* p = rgb + 3 * x;
      const __m256i pixels = _mm256_inserti128_si256(
          _mm256_castsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8)), 1);
      const __m256i weighted =
          _mm256_add_epi32(_mm256_madd_epi16(_mm256_shuffle_epi8(pixels, rg_pick), rg_weights),
                           _mm256_madd_epi16(_mm256_shuffle_epi8(pixels, b_pick), b_weights));
      const __m256i eighths = _mm256_srli_epi32(weighted, 3);
      acc = _mm256_add_epi32(
          acc, _mm256_srli_epi32(_mm256_mulhi_epu16(eighths, reciprocal), 6));
    }
    __m128i sum4 = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                 _mm256_extracti128_si256(acc, 1));
    sum4 = _mm_add_epi32(sum4, _mm_unpackhi_epi64(sum4, sum4));
    sum4 = _mm_add_epi32(sum4, _mm_shuffle_epi32(sum4, 1));
    std::uint64_t sum = static_cast<std::uint32_t>(_mm_cvtsi128_si32(sum4));
    for (; x < end; ++x) sum += LuminanceScalar(rgb + 3 * x);
    sums[k] += sum;
  }
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

void RenderPixelRow(const PixelRow& row, std::size_t width, std::uint8_t* out,
                    Lane lane) {
#if defined(SWW_SIMD_X86)
  if (lane == Lane::kAvx2) return RenderPixelRowAvx2(row, width, out);
#else
  (void)lane;
#endif
  RenderPixelRowScalar(row, width, out);
}

void AddLuminanceSpans(const std::uint8_t* rgb, const int* bounds,
                       std::size_t spans, std::uint64_t* sums, Lane lane) {
#if defined(SWW_SIMD_X86)
  if (lane == Lane::kAvx2) return AddLuminanceSpansAvx2(rgb, bounds, spans, sums);
#else
  (void)lane;
#endif
  AddLuminanceSpansScalar(rgb, bounds, spans, sums);
}

}  // namespace sww::util::simd
