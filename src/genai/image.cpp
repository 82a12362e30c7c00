#include "genai/image.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace sww::genai {

using util::Error;
using util::ErrorCode;
using util::Result;

Image::Image(int width, int height)
    : width_(width),
      height_(height),
      data_(static_cast<std::size_t>(width) * height * 3, 0) {}

Pixel Image::Get(int x, int y) const {
  const std::size_t i = (static_cast<std::size_t>(y) * width_ + x) * 3;
  return Pixel{data_[i], data_[i + 1], data_[i + 2]};
}

void Image::Set(int x, int y, Pixel pixel) {
  const std::size_t i = (static_cast<std::size_t>(y) * width_ + x) * 3;
  data_[i] = pixel.r;
  data_[i + 1] = pixel.g;
  data_[i + 2] = pixel.b;
}

std::uint8_t Image::Luminance(int x, int y) const {
  const Pixel p = Get(x, y);
  return static_cast<std::uint8_t>((299 * p.r + 587 * p.g + 114 * p.b) / 1000);
}

double Image::MeanLuminance(int x0, int y0, int x1, int y1) const {
  x0 = std::max(0, x0);
  y0 = std::max(0, y0);
  x1 = std::min(width_, x1);
  y1 = std::min(height_, y1);
  if (x0 >= x1 || y0 >= y1) return 0.0;
  double sum = 0.0;
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      sum += Luminance(x, y);
    }
  }
  return sum / (static_cast<double>(x1 - x0) * (y1 - y0));
}

namespace {

constexpr char kPpmHeader[] = "P6\n%d %d\n255\n";

/// The one P6 encoder: the header, then the pixel bytes, appended to the
/// caller's buffer type (one reserve, no allocation when the buffer
/// already holds PpmSize bytes of capacity).  Both inserts take pointers
/// to the buffer's own element type, so the pixels go in as one memcpy.
template <typename Buffer>
void EncodePpm(int width, int height, const std::vector<std::uint8_t>& pixels,
               Buffer& out) {
  using Byte = typename Buffer::value_type;
  char header[64];
  const int length = std::snprintf(header, sizeof(header), kPpmHeader, width, height);
  const auto* header_bytes = reinterpret_cast<const Byte*>(header);
  const auto* pixel_bytes = reinterpret_cast<const Byte*>(pixels.data());
  out.reserve(out.size() + static_cast<std::size_t>(length) + pixels.size());
  out.insert(out.end(), header_bytes, header_bytes + length);
  out.insert(out.end(), pixel_bytes, pixel_bytes + pixels.size());
}

}  // namespace

std::size_t Image::PpmSize(int width, int height) {
  return static_cast<std::size_t>(std::snprintf(nullptr, 0, kPpmHeader, width, height)) +
         static_cast<std::size_t>(width) * height * 3;
}

std::string Image::ToPpm() const {
  std::string out;
  EncodePpm(width_, height_, data_, out);
  return out;
}

util::Bytes Image::ToPpmBytes() const {
  util::Bytes out;
  AppendPpm(out);
  return out;
}

void Image::AppendPpm(util::Bytes& out) const {
  EncodePpm(width_, height_, data_, out);
}

Result<Image> Image::FromPpm(std::string_view ppm) {
  // Parse "P6\n<w> <h>\n255\n" followed by raw bytes.  Whitespace-tolerant.
  if (ppm.substr(0, 2) != "P6") {
    return Error(ErrorCode::kMalformed, "not a P6 PPM");
  }
  std::size_t pos = 2;
  auto skip_space_and_comments = [&]() {
    while (pos < ppm.size()) {
      if (std::isspace(static_cast<unsigned char>(ppm[pos]))) {
        ++pos;
      } else if (ppm[pos] == '#') {
        while (pos < ppm.size() && ppm[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  };
  auto read_int = [&]() -> Result<int> {
    skip_space_and_comments();
    int value = 0;
    bool any = false;
    while (pos < ppm.size() && std::isdigit(static_cast<unsigned char>(ppm[pos]))) {
      value = value * 10 + (ppm[pos] - '0');
      if (value > kMaxPpmDimension) {
        return Error(ErrorCode::kMalformed, "ppm: value out of range");
      }
      ++pos;
      any = true;
    }
    if (!any) return Error(ErrorCode::kMalformed, "ppm: expected integer");
    return value;
  };
  auto width = read_int();
  if (!width) return width.error();
  auto height = read_int();
  if (!height) return height.error();
  auto maxval = read_int();
  if (!maxval) return maxval.error();
  if (maxval.value() != 255) {
    return Error(ErrorCode::kMalformed, "ppm: only maxval 255 supported");
  }
  // A single whitespace byte separates the maxval from the pixels.
  if (pos >= ppm.size()) {
    return Error(ErrorCode::kTruncated, "ppm: pixel data truncated");
  }
  ++pos;
  const std::size_t needed =
      static_cast<std::size_t>(width.value()) * height.value() * 3;
  if (ppm.size() - pos < needed) {
    return Error(ErrorCode::kTruncated, "ppm: pixel data truncated");
  }
  Image image(width.value(), height.value());
  std::copy_n(reinterpret_cast<const std::uint8_t*>(ppm.data() + pos), needed,
              image.data_.begin());
  return image;
}

}  // namespace sww::genai
