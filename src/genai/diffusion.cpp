#include "genai/diffusion.hpp"

#include <algorithm>
#include <cmath>

#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace sww::genai {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

std::uint8_t ClampByte(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

/// Prompt-derived base hue: stable per prompt, so "a green forest" and
/// re-generations of it look consistent.
void PromptHue(std::string_view prompt, double* r_gain, double* g_gain,
               double* b_gain) {
  const std::uint64_t h = util::Fnv1a64(util::ToLower(prompt));
  *r_gain = 0.75 + 0.5 * util::HashToUnit(h);
  *g_gain = 0.75 + 0.5 * util::HashToUnit(h * 0x9e3779b97f4a7c15ULL + 1);
  *b_gain = 0.75 + 0.5 * util::HashToUnit(h * 0xbf58476d1ce4e5b9ULL + 2);
}

/// Render a cell-grid luminance field to pixels with smooth (bilinear)
/// interpolation between cell centers plus fine deterministic texture.
///
/// Row-tile parallel when a pool is given.  The per-pixel texture is a
/// stateless counter hash of (seed, x, y) — every pixel's noise depends
/// only on its own coordinates, so output bytes are identical for any
/// tile schedule and any thread count (including none).
Image RenderField(const std::vector<double>& field, int width, int height,
                  std::string_view prompt, std::uint64_t seed,
                  util::ThreadPool* pool) {
  Image image(width, height);
  double r_gain = 1.0, g_gain = 1.0, b_gain = 1.0;
  PromptHue(prompt, &r_gain, &g_gain, &b_gain);
  const std::uint64_t texture_seed = util::HashCombine(seed, 0x7e37a2u);

  auto cell_value = [&field](int cx, int cy) {
    cx = std::clamp(cx, 0, kSemanticGrid - 1);
    cy = std::clamp(cy, 0, kSemanticGrid - 1);
    return field[static_cast<std::size_t>(cy * kSemanticGrid + cx)];
  };

  auto render_rows = [&](std::int64_t y_begin, std::int64_t y_end) {
    // Three tight loops per row — the bilinear carrier, the texture, then
    // the pixels — through two row buffers.  Fused into one per-pixel
    // loop, the same arithmetic rendered 1.2-1.4x slower (256x256, -O3).
    std::vector<double> value(static_cast<std::size_t>(width));
    std::vector<double> texture(static_cast<std::size_t>(width));
    for (int y = static_cast<int>(y_begin); y < y_end; ++y) {
      for (int x = 0; x < width; ++x) {
        // Bilinear interpolation in cell space, sampled at cell centers.
        const double fx = (static_cast<double>(x) + 0.5) / width * kSemanticGrid - 0.5;
        const double fy = (static_cast<double>(y) + 0.5) / height * kSemanticGrid - 0.5;
        const int cx = static_cast<int>(std::floor(fx));
        const int cy = static_cast<int>(std::floor(fy));
        const double tx = fx - cx;
        const double ty = fy - cy;
        value[static_cast<std::size_t>(x)] =
            cell_value(cx, cy) * (1 - tx) * (1 - ty) +
            cell_value(cx + 1, cy) * tx * (1 - ty) +
            cell_value(cx, cy + 1) * (1 - tx) * ty +
            cell_value(cx + 1, cy + 1) * tx * ty;
      }
      // Fine per-pixel texture: zero-mean, so cell means (the semantic
      // carrier) are preserved.
      for (int x = 0; x < width; ++x) {
        texture[static_cast<std::size_t>(x)] =
            util::CounterRange(texture_seed, static_cast<std::uint64_t>(x),
                               static_cast<std::uint64_t>(y), -9.0, 9.0);
      }
      for (int x = 0; x < width; ++x) {
        const double luminance = 128.0 + value[static_cast<std::size_t>(x)] +
                                 texture[static_cast<std::size_t>(x)];
        image.Set(x, y,
                  Pixel{ClampByte(luminance * r_gain), ClampByte(luminance * g_gain),
                        ClampByte(luminance * b_gain)});
      }
    }
  };

  if (pool != nullptr && pool->worker_count() > 1) {
    pool->ParallelFor(height, render_rows);
  } else {
    render_rows(0, height);
  }
  return image;
}

}  // namespace

Result<GeneratedImage> DiffusionModel::Generate(std::string_view prompt,
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
  const Vec text_embedding = TextEmbeddingOf(prompt);
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
  // schedule already shrinks `plant` itself.)  Cells are independent, so
  // the blend runs tile-parallel when a pool is attached.  Each cell is
  // (plant*target) + (u*latent) with u computed once and no FMA.
  const double u = 1.0 - plant;
  auto denoise_cells = [&](std::int64_t c_begin, std::int64_t c_end) {
    for (std::int64_t c = c_begin; c < c_end; ++c) {
      const auto i = static_cast<std::size_t>(c);
      latent[i] = plant * target[i] + u * latent[i];
    }
  };
  if (pool_ != nullptr && pool_->worker_count() > 1) {
    pool_->ParallelFor(cells, denoise_cells);
  } else {
    denoise_cells(0, cells);
  }

  // 4. Render.
  GeneratedImage out;
  out.image = RenderField(latent, width, height, prompt, seed, pool_);
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
  return RenderField(latent, width, height, "", seed, nullptr);
}

}  // namespace sww::genai
