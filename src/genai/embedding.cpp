#include "genai/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"

namespace sww::genai {

double Dot(const Vec& a, const Vec& b) {
  // Canonical fixed-tree order (util::simd): bit-identical in every
  // dispatch lane, so embedding scores never depend on the host ISA.
  return util::simd::DotPairwise(a.data(), b.data(), kEmbeddingDim);
}

double Norm(const Vec& v) { return std::sqrt(Dot(v, v)); }

void Normalize(Vec& v) {
  const double norm = Norm(v);
  if (norm < 1e-12) return;
  for (double& x : v) x /= norm;
}

double Cosine(const Vec& a, const Vec& b) {
  const double na = Norm(a);
  const double nb = Norm(b);
  if (na < 1e-12 || nb < 1e-12) return 0.0;
  return Dot(a, b) / (na * nb);
}

Vec TokenEmbedding(std::string_view token) {
  const std::string folded = util::ToLower(token);
  util::Rng rng(util::Fnv1a64(folded, 0x7a3e8d91c5b2f064ULL));
  Vec v;
  for (double& x : v) x = rng.NextGaussian();
  Normalize(v);
  return v;
}

Vec TextEmbedding(const std::vector<std::string>& tokens) {
  Vec sum{};
  for (const std::string& token : tokens) {
    const Vec e = TokenEmbedding(token);
    for (int d = 0; d < kEmbeddingDim; ++d) sum[d] += e[d];
  }
  Normalize(sum);
  return sum;
}

Vec TextEmbeddingOf(std::string_view text) {
  return TextEmbedding(util::Tokenize(text));
}

const Vec& CellBasis(int cell_index) {
  static std::array<Vec, kSemanticGrid * kSemanticGrid> bases;
  static std::once_flag once;
  std::call_once(once, [] {
    for (int c = 0; c < kSemanticGrid * kSemanticGrid; ++c) {
      util::Rng rng(util::HashCombine(0x5eedba5e5eedba5eULL,
                                      static_cast<std::uint64_t>(c)));
      for (double& x : bases[static_cast<std::size_t>(c)]) {
        x = rng.NextGaussian();
      }
      Normalize(bases[static_cast<std::size_t>(c)]);
    }
  });
  return bases.at(static_cast<std::size_t>(cell_index));
}

std::vector<double> SemanticField(const Vec& text_embedding) {
  std::vector<double> field(kSemanticGrid * kSemanticGrid);
  for (int c = 0; c < kSemanticGrid * kSemanticGrid; ++c) {
    field[static_cast<std::size_t>(c)] =
        Dot(text_embedding, CellBasis(c)) * kPlantAmplitude *
        std::sqrt(static_cast<double>(kEmbeddingDim));
  }
  return field;
}

std::vector<double> ReadCellField(const Image& image, util::simd::Lane lane) {
  std::vector<double> field(kSemanticGrid * kSemanticGrid, 0.0);
  if (image.empty()) return field;
  const double cell_w = static_cast<double>(image.width()) / kSemanticGrid;
  const double cell_h = static_cast<double>(image.height()) / kSemanticGrid;
  if (image.width() < kSemanticGrid || image.height() < kSemanticGrid) {
    for (int cy = 0; cy < kSemanticGrid; ++cy) {
      for (int cx = 0; cx < kSemanticGrid; ++cx) {
        const int x0 = static_cast<int>(cx * cell_w);
        const int y0 = static_cast<int>(cy * cell_h);
        const int x1 = static_cast<int>((cx + 1) * cell_w);
        const int y1 = static_cast<int>((cy + 1) * cell_h);
        const double mean = image.MeanLuminance(x0, y0, std::max(x1, x0 + 1),
                                                std::max(y1, y0 + 1));
        field[static_cast<std::size_t>(cy * kSemanticGrid + cx)] = mean - 128.0;
      }
    }
    return field;
  }
  // Cells at least one pixel wide and tall tile the image exactly: cell
  // cx spans [bounds[cx], bounds[cx + 1]), and bounds[kSemanticGrid] is
  // the width.  Integer sums are exact, so each mean is the same double
  // as MeanLuminance's.
  int bounds[kSemanticGrid + 1];
  for (int cx = 0; cx <= kSemanticGrid; ++cx) bounds[cx] = static_cast<int>(cx * cell_w);
  for (int cy = 0; cy < kSemanticGrid; ++cy) {
    const int y0 = static_cast<int>(cy * cell_h);
    const int y1 = static_cast<int>((cy + 1) * cell_h);
    std::uint64_t sums[kSemanticGrid] = {};
    for (int y = y0; y < y1; ++y) {
      util::simd::AddLuminanceSpans(image.row(y), bounds, kSemanticGrid, sums, lane);
    }
    for (int cx = 0; cx < kSemanticGrid; ++cx) {
      const double pixels =
          static_cast<double>(bounds[cx + 1] - bounds[cx]) * (y1 - y0);
      field[static_cast<std::size_t>(cy * kSemanticGrid + cx)] =
          static_cast<double>(sums[cx]) / pixels - 128.0;
    }
  }
  return field;
}

std::vector<double> ReadCellField(const Image& image) {
  return ReadCellField(image, util::simd::ActiveLane());
}

Vec FieldToEmbedding(const std::vector<double>& field) {
  Vec embedding{};
  const int cells = kSemanticGrid * kSemanticGrid;
  for (int c = 0; c < cells && c < static_cast<int>(field.size()); ++c) {
    const Vec& basis = CellBasis(c);
    const double scale = field[static_cast<std::size_t>(c)];
    for (int d = 0; d < kEmbeddingDim; ++d) embedding[d] += scale * basis[d];
  }
  return embedding;
}

Vec ImageEmbedding(const Image& image) {
  Vec embedding = FieldToEmbedding(ReadCellField(image));
  Normalize(embedding);
  return embedding;
}

}  // namespace sww::genai
