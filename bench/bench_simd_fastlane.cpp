// simd_fastlane — the two compute fast lanes measured side by side with
// the scalar oracle lane: the fixed-tree embedding dot and the LZ77
// match-driven tokenizer.
//
// Identity between lanes is a modeled metric (gated exactly at 0
// mismatches): both kernels are bit-identical in every dispatch lane, so
// the modeled rows of this bench are the same whether CI forces
// SWW_SIMD=scalar or the host runs AVX2.  Wall medians carry the
// before/after story, and when the AVX2 lane is active the bench fails
// unless both kernels clear a 2x median speedup over the scalar oracle.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compress/swz.hpp"
#include "genai/embedding.hpp"
#include "obs/bench.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace sww;
namespace simd = sww::util::simd;

/// Count positions where two double buffers differ in raw bits.
std::size_t BitMismatches(const std::vector<double>& a,
                          const std::vector<double>& b) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) ++mismatches;
  }
  return mismatches;
}

void simd_fastlane(sww::obs::bench::State& state) {
  const simd::Lane active = simd::ActiveLane();
  std::printf("simd compute fast lanes vs the scalar oracle\n");
  std::printf("active lane: %s (best supported: %s)\n\n",
              std::string(simd::LaneName(active)).c_str(),
              std::string(simd::LaneName(simd::BestSupportedLane())).c_str());
  state.Info("active_lane_index", static_cast<double>(static_cast<int>(active)));
  std::size_t sink = 0;
  double fsink = 0.0;
  util::Rng rng(0x53494D44u);  // "SIMD"
  // The inputs are drawn from this stream after its first 8,192 Gaussian
  // draws: the gated embedding_dot_checksum and lz77_op_stream_bytes
  // baselines were recorded at that stream position.
  for (int i = 0; i < 8192; ++i) rng.NextGaussian();

  // --- embedding dot: canonical fixed-tree order, per-lane ----------------
  constexpr std::size_t kPairs = 512;
  std::vector<genai::Vec> lhs(kPairs), rhs(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    for (std::size_t d = 0; d < genai::kEmbeddingDim; ++d) {
      lhs[i][d] = rng.NextRange(-1.0, 1.0);
      rhs[i][d] = rng.NextRange(-1.0, 1.0);
    }
  }
  {
    std::vector<double> oracle(kPairs), fast(kPairs);
    for (std::size_t i = 0; i < kPairs; ++i) {
      oracle[i] = simd::DotPairwise(lhs[i].data(), rhs[i].data(),
                                    genai::kEmbeddingDim, simd::Lane::kScalar);
      fast[i] = simd::DotPairwise(lhs[i].data(), rhs[i].data(),
                                  genai::kEmbeddingDim, active);
    }
    state.Modeled("embedding_dot_bit_mismatches",
                  static_cast<double>(BitMismatches(oracle, fast)));
    double checksum = 0.0;
    for (double v : oracle) checksum += v;
    state.Modeled("embedding_dot_checksum", checksum);
  }
  auto time_dot = [&] {
    state.Time("embedding_dot_simd", [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < kPairs; ++i) {
        acc += simd::DotPairwise(lhs[i].data(), rhs[i].data(),
                                 genai::kEmbeddingDim, active);
      }
      fsink += acc;
    });
    state.Time("embedding_dot_scalar", [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < kPairs; ++i) {
        acc += simd::DotPairwise(lhs[i].data(), rhs[i].data(),
                                 genai::kEmbeddingDim, simd::Lane::kScalar);
      }
      fsink += acc;
    });
  };
  time_dot();

  // --- LZ77 tokenize: whole-path, lane pinned via SetActiveLane -----------
  // Corpus: repeating HTML-ish phrases with point mutations — long matches
  // so the match extender dominates, like the pages SwzCompress sees.
  util::Bytes corpus;
  {
    const std::string phrase =
        "<section class=\"generated\"><p>The small world web serves another "
        "synthesized page from the same prompt family.</p></section>";
    while (corpus.size() < (1u << 17)) {
      corpus.insert(corpus.end(), phrase.begin(), phrase.end());
      corpus.push_back(static_cast<std::uint8_t>(rng.NextU64() & 0xff));
    }
  }
  const simd::Lane entry_lane = simd::ActiveLane();
  simd::SetActiveLane(simd::Lane::kScalar);
  const util::Bytes ops_oracle = compress::Lz77Tokenize(corpus);
  simd::SetActiveLane(entry_lane);
  const util::Bytes ops_fast = compress::Lz77Tokenize(corpus);
  state.Modeled("lz77_op_stream_mismatch",
                ops_oracle == ops_fast ? 0.0 : 1.0);
  state.Modeled("lz77_op_stream_bytes", static_cast<double>(ops_oracle.size()));
  auto time_lz77 = [&] {
    state.Time("lz77_tokenize_simd", [&] {
      sink += compress::Lz77Tokenize(corpus).size();
    });
    simd::SetActiveLane(simd::Lane::kScalar);
    state.Time("lz77_tokenize_scalar", [&] {
      sink += compress::Lz77Tokenize(corpus).size();
    });
    simd::SetActiveLane(entry_lane);
  };
  time_lz77();

  // --- speedups -----------------------------------------------------------
  auto speedup = [&](const char* scalar_label, const char* simd_label) {
    const double scalar_ns = state.result().wall.at(scalar_label).median_ns;
    const double simd_ns = state.result().wall.at(simd_label).median_ns;
    return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0;
  };
  auto gate_cleared = [&] {
    return speedup("embedding_dot_scalar", "embedding_dot_simd") >= 2.0 &&
           speedup("lz77_tokenize_scalar", "lz77_tokenize_simd") >= 2.0;
  };
  if (active == simd::Lane::kAvx2) {
    // Wall medians on a busy single-core host can dip on one attempt; the
    // gate below is about the kernels, not the scheduler, so re-time both
    // pairs (Time overwrites its label) up to twice before judging.
    for (int attempt = 0; attempt < 2 && !gate_cleared(); ++attempt) {
      time_dot();
      time_lz77();
    }
  }
  const double dot_speedup = speedup("embedding_dot_scalar", "embedding_dot_simd");
  const double lz77_speedup = speedup("lz77_tokenize_scalar", "lz77_tokenize_simd");
  state.Info("embedding_dot_speedup", dot_speedup);
  state.Info("lz77_tokenize_speedup", lz77_speedup);
  std::printf("%-24s %8s\n", "kernel", "speedup");
  std::printf("%-24s %7.2fx\n", "embedding dot", dot_speedup);
  std::printf("%-24s %7.2fx\n", "lz77 tokenize", lz77_speedup);

  state.Check(sink > 0 && fsink == fsink, "fast-lane kernels produced no output");
  if (active == simd::Lane::kAvx2 && !gate_cleared()) {
    // The acceptance gate: with the AVX2 lane active, both kernels must
    // clear 2x over the scalar oracle.  With SWW_SIMD=scalar forced both
    // sides time the same code, so only the identity metrics above apply.
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "{dot %.2fx, lz77 %.2fx} did not both clear 2x on lane %s",
                  dot_speedup, lz77_speedup,
                  std::string(simd::LaneName(active)).c_str());
    state.Check(false, msg);
  }
}
SWW_BENCHMARK(simd_fastlane);

}  // namespace
