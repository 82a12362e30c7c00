// diffusion.hpp — the latent-denoising image synthesizer.
//
// Substitutes for Stable Diffusion in the paper's pipeline (DESIGN.md §1).
// Generation follows the real model's *shape*:
//
//   1. the prompt is tokenized and embedded (text conditioning),
//   2. a seeded Gaussian latent field is drawn over the semantic cell grid,
//   3. N denoising steps move the latent toward the prompt's semantic
//      field, each step removing a fraction of the remaining noise,
//   4. the final latent renders to pixels: cell luminance carries the
//      semantics, prompt-derived hues and per-pixel texture make the
//      output look like an actual (procedural) picture.
//
// The model's `fidelity` bounds how much prompt signal survives into the
// image, and the step count controls how much of the initial noise is
// removed — so CLIP-style prompt/image similarity behaves like the paper's
// Table 1 / §6.3.1: strongly model-dependent, weakly step-dependent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "genai/embedding.hpp"
#include "genai/image.hpp"
#include "genai/model_specs.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace sww::genai {

/// Everything knowable about one generation run (feeds the device-time and
/// energy models, and the tests).
struct GenerationInfo {
  std::string model;
  int steps = 0;
  int width = 0;
  int height = 0;
  std::uint64_t seed = 0;
  double plant_fidelity = 0.0;  ///< effective fraction of prompt signal
  double residual_noise = 0.0;  ///< leftover noise after denoising
};

struct GeneratedImage {
  Image image;
  GenerationInfo info;
};

class DiffusionModel {
 public:
  explicit DiffusionModel(ImageModelSpec spec) : spec_(std::move(spec)) {}

  const ImageModelSpec& spec() const { return spec_; }

  /// Generate an image from a prompt.  Deterministic in (prompt, size,
  /// steps, seed).  Errors on non-positive dimensions or steps.
  util::Result<GeneratedImage> Generate(std::string_view prompt, int width,
                                        int height, int steps,
                                        std::uint64_t seed) const;

  /// The same generation for a caller that already holds the prompt's
  /// text conditioning: `text_embedding` must be TextEmbeddingOf(prompt).
  /// MediaGenerator embeds each prompt once and shares it with the §7
  /// digests; the overload above is this one plus that embedding.
  util::Result<GeneratedImage> Generate(std::string_view prompt,
                                        const Vec& text_embedding, int width,
                                        int height, int steps,
                                        std::uint64_t seed) const;

  /// Generate with the model's default step count.
  util::Result<GeneratedImage> Generate(std::string_view prompt, int width,
                                        int height, std::uint64_t seed) const {
    return Generate(prompt, width, height, spec_.default_steps, seed);
  }

  /// A prompt-free image: pure rendered noise.  The paper's CLIP baseline
  /// ("the CLIP score of a randomly generated image (no prompt) was 0.09").
  static Image RandomImage(int width, int height, std::uint64_t seed);

 private:
  ImageModelSpec spec_;
};

/// Step 4 of Generate: render a cell-grid luminance field to pixels with
/// smooth (bilinear) interpolation between cell centers, the prompt's hue
/// and a fine deterministic texture.
///
/// The carrier is separable: a column's clamped cell indices and weights
/// are tabled once per image, and a band of rows sharing a cell row keeps
/// the four per-column products c·(1-tx) and c·tx, so a pixel costs four
/// multiplies and three adds in the same left-to-right order as the
/// per-pixel formula (c00·(1-tx)·(1-ty) + c10·tx·(1-ty) + c01·(1-tx)·ty +
/// c11·tx·ty) — the bytes are identical to evaluating it directly.  Each
/// row is one util::simd::RenderPixelRow in `lane`; the bytes are the
/// same in every lane.
///
/// Runs on the calling thread: pages parallelize across items
/// (core::MediaGenerator::GenerateBatch), not inside one image.  The
/// per-pixel texture is a stateless counter hash of (seed, x, y), so the
/// bytes do not depend on which thread renders them.
Image RenderField(const std::vector<double>& field, int width, int height,
                  std::string_view prompt, std::uint64_t seed,
                  util::simd::Lane lane);

}  // namespace sww::genai
