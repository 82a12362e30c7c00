// simd_fastlane — the compute fast lanes measured side by side with the
// scalar oracle lane: the fixed-tree embedding dot, the LZ77
// match-driven tokenizer, the render's pixel rows (RenderField over the
// 49 Figure 2 fields) and the digest's luminance rows (ReadCellField over
// the 49 rendered images).
//
// Identity between lanes is a modeled metric (gated exactly at 0
// mismatches): every kernel is bit-identical in every dispatch lane, so
// the modeled rows of this bench are the same whether CI forces
// SWW_SIMD=scalar or the host runs AVX2.  Wall medians carry the
// before/after story; each scalar/vector pair is timed interleaved, one
// call of each per round, so host load reaches both sides alike.  When
// the AVX2 lane is active the bench fails unless the dot and the
// tokenizer clear a 2x median speedup over the scalar oracle; the two
// row kernels' speedups are recorded as info.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compress/swz.hpp"
#include "core/page_builder.hpp"
#include "genai/diffusion.hpp"
#include "genai/embedding.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"
#include "obs/bench.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"
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
  auto dot_all = [&](simd::Lane lane) {
    double acc = 0.0;
    for (std::size_t i = 0; i < kPairs; ++i) {
      acc += simd::DotPairwise(lhs[i].data(), rhs[i].data(),
                               genai::kEmbeddingDim, lane);
    }
    fsink += acc;
  };
  auto time_dot = [&] {
    state.TimeInterleaved("embedding_dot_scalar", [&] { dot_all(simd::Lane::kScalar); },
                          "embedding_dot_simd", [&] { dot_all(active); });
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
  auto tokenize_in = [&](simd::Lane lane) {
    simd::SetActiveLane(lane);
    sink += compress::Lz77Tokenize(corpus).size();
    simd::SetActiveLane(entry_lane);
  };
  auto time_lz77 = [&] {
    state.TimeInterleaved(
        "lz77_tokenize_scalar", [&] { tokenize_in(simd::Lane::kScalar); },
        "lz77_tokenize_simd", [&] { tokenize_in(entry_lane); });
  };
  time_lz77();

  // --- Figure 2 render and cell field: whole images, lane explicit -------
  // The 49 Figure 2 prompts at their 256x192 size, each rendered from its
  // prompt's semantic field with the prompt's hue and seed; one call is
  // one image, and both sides of a pair step through the images together.
  struct Fig2Image {
    std::string prompt;
    std::vector<double> field;
    int width = 0;
    int height = 0;
    genai::Image oracle;
  };
  std::vector<Fig2Image> fig2;
  {
    auto doc = html::ParseDocument(core::MakeLandscapeSearchPage().html);
    state.Check(doc.ok(), "parse the Figure 2 page");
    if (!doc.ok()) return;
    for (const html::GeneratedContentSpec& spec :
         html::ExtractGeneratedContent(*doc.value()).specs) {
      Fig2Image image;
      image.prompt = spec.prompt();
      image.field = genai::SemanticField(genai::TextEmbeddingOf(image.prompt));
      image.width = spec.width();
      image.height = spec.height();
      fig2.push_back(std::move(image));
    }
  }
  auto render = [](const Fig2Image& image, simd::Lane lane) {
    return genai::RenderField(image.field, image.width, image.height, image.prompt,
                              util::Fnv1a64(image.prompt), lane);
  };
  std::size_t render_mismatches = 0;
  std::size_t cell_mismatches = 0;
  for (Fig2Image& image : fig2) {
    image.oracle = render(image, simd::Lane::kScalar);
    const genai::Image fast = render(image, active);
    for (std::size_t i = 0; i < fast.data().size(); ++i) {
      render_mismatches += fast.data()[i] != image.oracle.data()[i];
    }
    cell_mismatches += BitMismatches(genai::ReadCellField(image.oracle, simd::Lane::kScalar),
                                     genai::ReadCellField(image.oracle, active));
  }
  state.Modeled("render_row_bit_mismatches", static_cast<double>(render_mismatches));
  state.Modeled("cell_field_bit_mismatches", static_cast<double>(cell_mismatches));
  auto cycle = [&fig2](std::size_t& next) -> const Fig2Image& {
    return fig2[next++ % fig2.size()];
  };
  std::size_t next_scalar = 0;
  std::size_t next_simd = 0;
  state.TimeInterleaved(
      "render_row_scalar",
      [&] { sink += render(cycle(next_scalar), simd::Lane::kScalar).data()[0]; },
      "render_row_simd", [&] { sink += render(cycle(next_simd), active).data()[0]; });
  next_scalar = 0;
  next_simd = 0;
  state.TimeInterleaved(
      "cell_field_scalar",
      [&] { fsink += genai::ReadCellField(cycle(next_scalar).oracle, simd::Lane::kScalar)[0]; },
      "cell_field_simd",
      [&] { fsink += genai::ReadCellField(cycle(next_simd).oracle, active)[0]; });

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
    // pairs (TimeInterleaved overwrites their labels) up to twice before
    // judging.
    for (int attempt = 0; attempt < 2 && !gate_cleared(); ++attempt) {
      time_dot();
      time_lz77();
    }
  }
  const double dot_speedup = speedup("embedding_dot_scalar", "embedding_dot_simd");
  const double lz77_speedup = speedup("lz77_tokenize_scalar", "lz77_tokenize_simd");
  const double render_speedup = speedup("render_row_scalar", "render_row_simd");
  const double cell_speedup = speedup("cell_field_scalar", "cell_field_simd");
  state.Info("embedding_dot_speedup", dot_speedup);
  state.Info("lz77_tokenize_speedup", lz77_speedup);
  state.Info("render_row_speedup", render_speedup);
  state.Info("cell_field_speedup", cell_speedup);
  std::printf("%-24s %8s\n", "kernel", "speedup");
  std::printf("%-24s %7.2fx\n", "embedding dot", dot_speedup);
  std::printf("%-24s %7.2fx\n", "lz77 tokenize", lz77_speedup);
  std::printf("%-24s %7.2fx\n", "render row (fig2)", render_speedup);
  std::printf("%-24s %7.2fx\n", "cell field (fig2)", cell_speedup);

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
