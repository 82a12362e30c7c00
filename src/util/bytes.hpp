// bytes.hpp — byte buffer primitives shared by the protocol stack.
//
// HTTP/2 and HPACK are big-endian binary formats; these readers/writers keep
// all byte-order handling in one audited place (Core Guidelines ES.100-ish:
// keep low-level bit fiddling contained).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace sww::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Convert between strings and byte vectors (bytes are not text, but header
/// values and HTML bodies cross that boundary constantly).
Bytes ToBytes(std::string_view text);
std::string ToString(BytesView bytes);

/// Hex dump for logs/tests: "00 01 ff ..." (lowercase, space separated).
std::string HexDump(BytesView bytes);

/// Parse a hex dump produced by HexDump (whitespace tolerant).
Result<Bytes> FromHex(std::string_view hex);

/// Appends big-endian fixed-width integers and raw bytes to a growing buffer.
/// All HTTP/2 frame serialization goes through this type.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buffer_.reserve(reserve); }

  void WriteU8(std::uint8_t v);
  void WriteU16(std::uint16_t v);
  void WriteU24(std::uint32_t v);  ///< low 24 bits, big-endian (frame length)
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteBytes(BytesView bytes);
  void WriteString(std::string_view text);

  std::size_t size() const { return buffer_.size(); }
  const Bytes& bytes() const& { return buffer_; }
  Bytes TakeBytes() && { return std::move(buffer_); }

  /// Overwrite previously written bytes (e.g. patch a length field after the
  /// payload size is known).  `offset + width` must be within size().
  void PatchU24(std::size_t offset, std::uint32_t v);

 private:
  Bytes buffer_;
};

/// Reusable append-only byte region for hot emission paths (the HTTP/2
/// frame writer).  Unlike ByteWriter, whose buffer is moved out and
/// re-allocated per use, an arena is cleared and refilled in place: after a
/// short warmup its capacity covers the steady-state working set and
/// appending allocates nothing.  Clear() tracks a high watermark across
/// recent fill/drain cycles and shrinks the backing store only when
/// capacity has been far above the watermark for a whole review period, so
/// one burst (a 16 MiB upload) cannot pin memory forever but steady
/// traffic never reallocates.
class BytesArena {
 public:
  BytesArena() = default;

  /// Uninitialized space for `count` bytes; the returned pointer is valid
  /// until the next Claim/Append/Clear.
  std::uint8_t* Claim(std::size_t count);

  void Append(BytesView bytes);
  void Append(std::string_view text);
  void AppendU8(std::uint8_t v);
  /// Big-endian fixed-width appends (frame headers are big-endian).
  void AppendU24(std::uint32_t v);
  void AppendU32(std::uint32_t v);

  /// Drop the contents, keep (most of) the capacity for the next cycle.
  void Clear();

  BytesView View() const { return BytesView(data_.data(), size_); }
  const std::uint8_t* data() const { return data_.data(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return data_.size(); }

  /// Number of backing-store (re)allocations since construction.  Steady
  /// state is zero growth; benchmarks gate this exactly.
  std::uint64_t allocations() const { return allocations_; }

 private:
  /// Clears per review period before an oversized backing store may shrink.
  static constexpr std::size_t kShrinkReviewPeriod = 64;

  void Grow(std::size_t needed);

  std::vector<std::uint8_t> data_;   // backing store; size() == capacity
  std::size_t size_ = 0;             // bytes appended since last Clear
  std::size_t high_watermark_ = 0;   // max size_ seen this review period
  std::size_t clears_ = 0;           // Clear() calls this review period
  std::uint64_t allocations_ = 0;
};

/// Sequential big-endian reader over a borrowed byte span.  All Read*
/// methods return kTruncated errors instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(BytesView bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - offset_; }
  std::size_t offset() const { return offset_; }
  bool empty() const { return remaining() == 0; }

  Result<std::uint8_t> ReadU8();
  Result<std::uint16_t> ReadU16();
  Result<std::uint32_t> ReadU24();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  /// Borrow `count` bytes (view valid while the underlying buffer lives).
  Result<BytesView> ReadBytes(std::size_t count);
  /// Copy `count` bytes into a string.
  Result<std::string> ReadString(std::size_t count);
  /// Peek one byte without consuming.
  Result<std::uint8_t> PeekU8() const;
  /// Skip `count` bytes.
  Status Skip(std::size_t count);
  /// View of everything not yet consumed.
  BytesView Rest() const { return bytes_.subspan(offset_); }

 private:
  BytesView bytes_;
  std::size_t offset_ = 0;
};

}  // namespace sww::util
