#include "util/bytes.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>

namespace sww::util {

Bytes ToBytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string ToString(BytesView bytes) {
  return std::string(bytes.begin(), bytes.end());
}

std::string HexDump(BytesView bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 3);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i != 0) out.push_back(' ');
    out.push_back(kHex[bytes[i] >> 4]);
    out.push_back(kHex[bytes[i] & 0x0f]);
  }
  return out;
}

Result<Bytes> FromHex(std::string_view hex) {
  Bytes out;
  int nibble_count = 0;
  std::uint8_t current = 0;
  for (char c : hex) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (nibble_count == 1) {
        return Error(ErrorCode::kMalformed, "odd nibble before whitespace in hex");
      }
      continue;
    }
    std::uint8_t value = 0;
    if (c >= '0' && c <= '9') {
      value = static_cast<std::uint8_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value = static_cast<std::uint8_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value = static_cast<std::uint8_t>(c - 'A' + 10);
    } else {
      return Error(ErrorCode::kMalformed, std::string("invalid hex character: ") + c);
    }
    current = static_cast<std::uint8_t>((current << 4) | value);
    if (++nibble_count == 2) {
      out.push_back(current);
      current = 0;
      nibble_count = 0;
    }
  }
  if (nibble_count != 0) {
    return Error(ErrorCode::kMalformed, "odd number of hex digits");
  }
  return out;
}

void ByteWriter::WriteU8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::WriteU16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::WriteU24(std::uint32_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v >> 16));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::WriteU32(std::uint32_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v >> 24));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 16));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::WriteU64(std::uint64_t v) {
  WriteU32(static_cast<std::uint32_t>(v >> 32));
  WriteU32(static_cast<std::uint32_t>(v));
}

void ByteWriter::WriteBytes(BytesView bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::WriteString(std::string_view text) {
  buffer_.insert(buffer_.end(), text.begin(), text.end());
}

void ByteWriter::PatchU24(std::size_t offset, std::uint32_t v) {
  buffer_.at(offset) = static_cast<std::uint8_t>(v >> 16);
  buffer_.at(offset + 1) = static_cast<std::uint8_t>(v >> 8);
  buffer_.at(offset + 2) = static_cast<std::uint8_t>(v);
}

void BytesArena::Grow(std::size_t needed) {
  std::size_t capacity = data_.size() < 256 ? 256 : data_.size();
  while (capacity < needed) capacity *= 2;
  data_.resize(capacity);
  ++allocations_;
}

std::uint8_t* BytesArena::Claim(std::size_t count) {
  if (size_ + count > data_.size()) Grow(size_ + count);
  std::uint8_t* out = data_.data() + size_;
  size_ += count;
  return out;
}

void BytesArena::Append(BytesView bytes) {
  if (bytes.empty()) return;
  std::memcpy(Claim(bytes.size()), bytes.data(), bytes.size());
}

void BytesArena::Append(std::string_view text) {
  if (text.empty()) return;
  std::memcpy(Claim(text.size()), text.data(), text.size());
}

void BytesArena::AppendU8(std::uint8_t v) { *Claim(1) = v; }

void BytesArena::AppendU24(std::uint32_t v) {
  std::uint8_t* p = Claim(3);
  p[0] = static_cast<std::uint8_t>(v >> 16);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v);
}

void BytesArena::AppendU32(std::uint32_t v) {
  std::uint8_t* p = Claim(4);
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void BytesArena::Clear() {
  high_watermark_ = std::max(high_watermark_, size_);
  size_ = 0;
  if (++clears_ < kShrinkReviewPeriod) return;
  // A whole review period with capacity far above the watermark: the burst
  // that grew us is over; release the excess.
  if (high_watermark_ > 0 && data_.size() > high_watermark_ * 2) {
    data_.resize(high_watermark_);
    data_.shrink_to_fit();
  }
  clears_ = 0;
  high_watermark_ = 0;
}

Result<std::uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return Error(ErrorCode::kTruncated, "ReadU8 past end");
  return bytes_[offset_++];
}

Result<std::uint16_t> ByteReader::ReadU16() {
  if (remaining() < 2) return Error(ErrorCode::kTruncated, "ReadU16 past end");
  std::uint16_t v = static_cast<std::uint16_t>(bytes_[offset_] << 8 | bytes_[offset_ + 1]);
  offset_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::ReadU24() {
  if (remaining() < 3) return Error(ErrorCode::kTruncated, "ReadU24 past end");
  std::uint32_t v = static_cast<std::uint32_t>(bytes_[offset_]) << 16 |
                    static_cast<std::uint32_t>(bytes_[offset_ + 1]) << 8 |
                    static_cast<std::uint32_t>(bytes_[offset_ + 2]);
  offset_ += 3;
  return v;
}

Result<std::uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) return Error(ErrorCode::kTruncated, "ReadU32 past end");
  std::uint32_t v = static_cast<std::uint32_t>(bytes_[offset_]) << 24 |
                    static_cast<std::uint32_t>(bytes_[offset_ + 1]) << 16 |
                    static_cast<std::uint32_t>(bytes_[offset_ + 2]) << 8 |
                    static_cast<std::uint32_t>(bytes_[offset_ + 3]);
  offset_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  auto hi = ReadU32();
  if (!hi) return hi.error();
  auto lo = ReadU32();
  if (!lo) return lo.error();
  return (static_cast<std::uint64_t>(hi.value()) << 32) | lo.value();
}

Result<BytesView> ByteReader::ReadBytes(std::size_t count) {
  if (remaining() < count) {
    return Error(ErrorCode::kTruncated, "ReadBytes past end");
  }
  BytesView view = bytes_.subspan(offset_, count);
  offset_ += count;
  return view;
}

Result<std::string> ByteReader::ReadString(std::size_t count) {
  auto view = ReadBytes(count);
  if (!view) return view.error();
  return ToString(view.value());
}

Result<std::uint8_t> ByteReader::PeekU8() const {
  if (remaining() < 1) return Error(ErrorCode::kTruncated, "PeekU8 past end");
  return bytes_[offset_];
}

Status ByteReader::Skip(std::size_t count) {
  if (remaining() < count) return Error(ErrorCode::kTruncated, "Skip past end");
  offset_ += count;
  return Status::Ok();
}

}  // namespace sww::util
