// image.hpp — raster image type used by the generation pipeline.
//
// RGB8, row-major.  Includes PPM (P6) serialization so generated artifacts
// can be written to disk and inspected, and the "typical media size" model
// the paper's storage numbers use (Table 2 sizes: 256² → 8,192 B,
// 512² → 32,768 B, 1024² → 131,072 B — i.e. pixels/8, a typical
// photographic-JPEG operating point).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace sww::genai {

struct Pixel {
  std::uint8_t r = 0, g = 0, b = 0;
};

class Image {
 public:
  Image() = default;
  Image(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  std::int64_t pixel_count() const {
    return static_cast<std::int64_t>(width_) * height_;
  }
  bool empty() const { return pixel_count() == 0; }

  Pixel Get(int x, int y) const;
  void Set(int x, int y, Pixel pixel);

  /// Luminance (ITU-R BT.601 integer approximation) at a pixel, 0..255.
  std::uint8_t Luminance(int x, int y) const;

  /// Mean luminance over a rectangle (clipped to bounds).
  double MeanLuminance(int x0, int y0, int x1, int y1) const;

  const std::vector<std::uint8_t>& data() const { return data_; }
  /// Row `y`'s 3·width bytes, for writers that fill whole rows.
  std::uint8_t* row(int y) {
    return data_.data() + static_cast<std::size_t>(y) * width_ * 3;
  }
  const std::uint8_t* row(int y) const {
    return data_.data() + static_cast<std::size_t>(y) * width_ * 3;
  }

  /// Largest width, height or maxval FromPpm accepts: bounds the digit
  /// parser and keeps width·height·3 inside size_t.
  static constexpr int kMaxPpmDimension = 1 << 15;

  /// Binary PPM (P6) round trip.  ToPpmBytes is the same encoding built
  /// straight into a byte buffer, and AppendPpm appends it to `out`,
  /// allocating nothing when `out` has PpmSize(width, height) bytes of
  /// spare capacity.  FromPpm rejects a width, height or maxval above
  /// kMaxPpmDimension and pixel data shorter than the header declares.
  std::string ToPpm() const;
  util::Bytes ToPpmBytes() const;
  void AppendPpm(util::Bytes& out) const;
  static std::size_t PpmSize(int width, int height);
  static util::Result<Image> FromPpm(std::string_view ppm);

  /// The byte size this image would occupy as a typical compressed media
  /// file (the paper's Table 2 sizing: pixels / 8).
  std::size_t TypicalCompressedBytes() const {
    return static_cast<std::size_t>(pixel_count() / 8);
  }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;  // 3 bytes per pixel, row-major
};

}  // namespace sww::genai
