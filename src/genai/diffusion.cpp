#include "genai/diffusion.hpp"

#include <algorithm>
#include <cmath>

#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sww::genai {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

/// Prompt-derived base hue: stable per prompt, so "a green forest" and
/// re-generations of it look consistent.
void PromptHue(std::string_view prompt, double* r_gain, double* g_gain,
               double* b_gain) {
  const std::uint64_t h = util::Fnv1a64(util::ToLower(prompt));
  *r_gain = 0.75 + 0.5 * util::HashToUnit(h);
  *g_gain = 0.75 + 0.5 * util::HashToUnit(h * 0x9e3779b97f4a7c15ULL + 1);
  *b_gain = 0.75 + 0.5 * util::HashToUnit(h * 0xbf58476d1ce4e5b9ULL + 2);
}

}  // namespace

Image RenderField(const std::vector<double>& field, int width, int height,
                  std::string_view prompt, std::uint64_t seed,
                  util::simd::Lane lane) {
  Image image(width, height);
  util::simd::PixelRow row;
  PromptHue(prompt, &row.gain[0], &row.gain[1], &row.gain[2]);
  row.offset = 128.0;
  // Fine per-pixel texture: zero-mean, so cell means (the semantic
  // carrier) are preserved.
  row.texture_seed = util::HashCombine(seed, 0x7e37a2u);
  row.texture_lo = -9.0;
  row.texture_hi = 9.0;

  // Bilinear interpolation in cell space, sampled at cell centers.
  auto clamp_cell = [](int c) { return std::clamp(c, 0, kSemanticGrid - 1); };
  struct Column {
    int left, right;         // clamped cell columns of cx and cx + 1
    double w_left, w_right;  // 1 - tx and tx
  };
  std::vector<Column> columns(static_cast<std::size_t>(width));
  for (int x = 0; x < width; ++x) {
    const double fx = (static_cast<double>(x) + 0.5) / width * kSemanticGrid - 0.5;
    const int cx = static_cast<int>(std::floor(fx));
    const double tx = fx - cx;
    columns[static_cast<std::size_t>(x)] =
        Column{clamp_cell(cx), clamp_cell(cx + 1), 1 - tx, tx};
  }

  const auto w = static_cast<std::size_t>(width);
  // Products of the band's top (cy) and bottom (cy + 1) cell rows with
  // the column weights, rebuilt when a row enters a new band.
  std::vector<double> top_left(w), top_right(w), bottom_left(w), bottom_right(w);
  row.top_left = top_left.data();
  row.top_right = top_right.data();
  row.bottom_left = bottom_left.data();
  row.bottom_right = bottom_right.data();
  int band = -2;  // no row has floor(fy) below -1
  for (int y = 0; y < height; ++y) {
    const double fy = (static_cast<double>(y) + 0.5) / height * kSemanticGrid - 0.5;
    const int cy = static_cast<int>(std::floor(fy));
    row.ty = fy - cy;
    row.sy = 1 - row.ty;
    row.y = static_cast<std::uint64_t>(y);
    if (cy != band) {
      band = cy;
      const double* top = &field[static_cast<std::size_t>(clamp_cell(cy) * kSemanticGrid)];
      const double* bottom =
          &field[static_cast<std::size_t>(clamp_cell(cy + 1) * kSemanticGrid)];
      for (std::size_t x = 0; x < w; ++x) {
        const Column& c = columns[x];
        top_left[x] = top[c.left] * c.w_left;
        top_right[x] = top[c.right] * c.w_right;
        bottom_left[x] = bottom[c.left] * c.w_left;
        bottom_right[x] = bottom[c.right] * c.w_right;
      }
    }
    util::simd::RenderPixelRow(row, w, image.row(y), lane);
  }
  return image;
}

Result<GeneratedImage> DiffusionModel::Generate(std::string_view prompt,
                                                int width, int height,
                                                int steps,
                                                std::uint64_t seed) const {
  return Generate(prompt, TextEmbeddingOf(prompt), width, height, steps, seed);
}

Result<GeneratedImage> DiffusionModel::Generate(std::string_view prompt,
                                                const Vec& text_embedding,
                                                int width, int height,
                                                int steps,
                                                std::uint64_t seed) const {
  if (width <= 0 || height <= 0) {
    return Error(ErrorCode::kInvalidArgument, "image dimensions must be positive");
  }
  if (steps <= 0) {
    return Error(ErrorCode::kInvalidArgument, "step count must be positive");
  }

  // 1. Text conditioning.
  const std::vector<double> target = SemanticField(text_embedding);

  // 2. Seeded initial latent: pure Gaussian noise over the cell grid.
  const int cells = kSemanticGrid * kSemanticGrid;
  util::Rng latent_rng(util::HashCombine(seed, util::Fnv1a64(prompt)));
  std::vector<double> latent(static_cast<std::size_t>(cells));
  for (double& v : latent) {
    v = latent_rng.NextGaussian(0.0, kPlantAmplitude);
  }

  // 3. Denoising: each step removes a constant fraction of the remaining
  //    distance to the fidelity-attenuated target.  After many steps the
  //    latent converges to fidelity·target + residual.
  const double per_step_removal = 0.30;
  double noise_share = 1.0;
  for (int s = 0; s < steps; ++s) {
    noise_share *= (1.0 - per_step_removal);
  }
  // Model capability bounds the planted signal; an unconverged schedule
  // (few steps) leaves extra noise in the output.
  const double plant = spec_.fidelity * (1.0 - noise_share);
  // Residual-noise model: the final latent is a convex blend — `plant` of
  // the prompt's semantic field, and the full (1 - plant) remainder of the
  // initial Gaussian latent kept as structured "imagination" noise, the
  // part of the picture the prompt does not pin down.  (The noise term is
  // deliberately NOT attenuated further by noise_share: an unconverged
  // schedule already shrinks `plant` itself.)  Each cell is
  // (plant*target) + (u*latent) with u computed once and no FMA; 256
  // cells are too few to split across threads.
  const double u = 1.0 - plant;
  for (std::size_t i = 0; i < latent.size(); ++i) {
    latent[i] = plant * target[i] + u * latent[i];
  }

  // 4. Render.
  GeneratedImage out;
  out.image = RenderField(latent, width, height, prompt, seed,
                          util::simd::ActiveLane());
  out.info.model = spec_.name;
  out.info.steps = steps;
  out.info.width = width;
  out.info.height = height;
  out.info.seed = seed;
  out.info.plant_fidelity = plant;
  out.info.residual_noise = 1.0 - plant;
  return out;
}

Image DiffusionModel::RandomImage(int width, int height, std::uint64_t seed) {
  const int cells = kSemanticGrid * kSemanticGrid;
  util::Rng rng(util::HashCombine(seed, 0xDEADBEEFULL));
  std::vector<double> latent(static_cast<std::size_t>(cells));
  for (double& v : latent) v = rng.NextGaussian(0.0, kPlantAmplitude);
  return RenderField(latent, width, height, "", seed, util::simd::ActiveLane());
}

}  // namespace sww::genai
