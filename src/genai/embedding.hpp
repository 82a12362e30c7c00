// embedding.hpp — the shared semantic embedding space.
//
// This is the keystone of the GenAI simulation (DESIGN.md §1).  Text
// prompts, generated images, and the CLIP/SBERT metric simulators all meet
// in one d-dimensional space:
//
//   * every token has a deterministic unit vector (hashed Gaussian),
//   * a text embeds as the normalized sum of its token vectors,
//   * the diffusion simulator *plants* a prompt's embedding into an image
//     as a coarse luminance field over a fixed cell grid,
//   * an image embeds by projecting its cell luminances back onto the
//     per-cell basis vectors — recovering (fidelity-attenuated) whatever
//     was planted, plus noise for whatever was not.
//
// Because planting and recovery are linear, prompt→image→score behaves
// like the real pipeline: higher-fidelity models and more denoising steps
// yield higher prompt/image similarity, unrelated images score near zero,
// and prompt inversion works by scoring vocabulary tokens against the
// recovered embedding.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "genai/image.hpp"
#include "util/simd.hpp"

namespace sww::genai {

inline constexpr int kEmbeddingDim = 64;
/// Images carry semantics on a kSemanticGrid × kSemanticGrid cell field.
inline constexpr int kSemanticGrid = 16;
/// Amplitude of the planted luminance field around mid-gray.
inline constexpr double kPlantAmplitude = 52.0;

using Vec = std::array<double, kEmbeddingDim>;

/// Dot product in the canonical pairwise fixed-tree order defined by
/// util::simd (64-element blocks reduced by a balanced stride-halving
/// tree).  This IS the semantics — not an approximation of left-to-right
/// summation — so the scalar oracle and the AVX2 fast lane agree to
/// the last bit and every modeled score is ISA-independent.
double Dot(const Vec& a, const Vec& b);
double Norm(const Vec& v);
void Normalize(Vec& v);
double Cosine(const Vec& a, const Vec& b);

/// Deterministic unit vector for a token (case-folded).
Vec TokenEmbedding(std::string_view token);

/// Normalized sum of token embeddings; zero vector for no tokens.
Vec TextEmbedding(const std::vector<std::string>& tokens);
Vec TextEmbeddingOf(std::string_view text);

/// Fixed pseudo-random unit basis vector for a semantic grid cell.
const Vec& CellBasis(int cell_index);

/// The semantic field a prompt plants: value for each of the grid's cells,
/// in units of luminance deviation from mid-gray.
std::vector<double> SemanticField(const Vec& text_embedding);

/// Read a (possibly resized) image's cell luminance field back out: each
/// cell's mean integer BT.601 luminance minus 128.  When width and height
/// are at least kSemanticGrid the cells partition the image, and each row
/// is summed per cell by util::simd::AddLuminanceSpans in `lane`; smaller
/// images have overlapping cells and use Image::MeanLuminance per cell.
/// The field is identical in every lane.
std::vector<double> ReadCellField(const Image& image, util::simd::Lane lane);
std::vector<double> ReadCellField(const Image& image);

/// Project a cell field back into embedding space (the inverse of
/// SemanticField up to noise).
Vec FieldToEmbedding(const std::vector<double>& field);

/// Full image embedding: ReadCellField ∘ FieldToEmbedding, normalized.
Vec ImageEmbedding(const Image& image);

}  // namespace sww::genai
