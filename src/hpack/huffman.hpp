// huffman.hpp — the HPACK static Huffman code (RFC 7541, Appendix B).
//
// HTTP/2 header strings may be Huffman coded with a fixed, canonical code
// table.  Encoding packs codes MSB-first through a 64-bit accumulator into
// a pre-sized buffer and pads the final byte with the EOS prefix (all
// ones).  Decoding runs a flat 256-state × 256-input finite-state machine
// (one whole input byte per step, 0–2 symbols emitted per step) built once
// from the code table; the RFC's padding rules (at most 7 bits, all ones,
// EOS itself never decoded) are folded into the per-state flags.  The
// bit-at-a-time trie walk the FSM replaced lives next to the tests
// (tests/oracles/hpack.hpp), which verify the FSM against it byte for
// byte.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace sww::hpack {

/// One code table entry: the code's bits (right-aligned) and bit length.
struct HuffmanCode {
  std::uint32_t bits;
  std::uint8_t length;
};

/// The 257-entry table: symbols 0..255 plus EOS (index 256).
const HuffmanCode& CodeForSymbol(unsigned symbol);

/// Number of bytes `text` occupies when Huffman coded (without encoding it).
/// The HPACK encoder uses this to pick the shorter of raw vs. Huffman form.
std::size_t HuffmanEncodedSize(std::string_view text);

/// Huffman-encode `text`, appending to `out`.  The output is pre-sized via
/// HuffmanEncodedSize and filled through a wide accumulator (whole 64-bit
/// words flushed at a time) instead of per-byte push_back.
void HuffmanEncode(std::string_view text, util::Bytes& out);

/// Huffman-decode an encoded span via the FSM fast lane.  Errors
/// (kCompression) on: a decoded EOS symbol, padding longer than 7 bits, or
/// padding that is not all ones — each of which RFC 7541 §5.2 requires
/// treating as a decoding error.
util::Result<std::string> HuffmanDecode(util::BytesView encoded);

// --- FSM internals, exposed for tests and benchmarks ---------------------

/// One transition of the decoder FSM: consuming one input byte from one
/// state.  `flags` fold in everything the decode loop needs: failure (the
/// byte walks off the code tree or through the EOS symbol), whether the
/// destination state is a valid end of input (root, or an all-ones EOS
/// prefix of ≤ 7 bits), which padding error to report otherwise, and how
/// many symbols the step emitted (0–2, in `symbols`).
struct HuffmanFsmEntry {
  std::uint8_t next = 0;      ///< destination state (trie node id)
  std::uint8_t flags = 0;
  std::uint8_t symbols[2] = {0, 0};
};

inline constexpr std::uint8_t kHuffmanFsmFail = 0x01;     ///< invalid code path
inline constexpr std::uint8_t kHuffmanFsmFailEos = 0x02;  ///< walked through EOS
inline constexpr std::uint8_t kHuffmanFsmAccept = 0x04;   ///< valid end of input
inline constexpr std::uint8_t kHuffmanFsmPadLong = 0x08;  ///< >7 bits mid-code
inline constexpr int kHuffmanFsmEmitShift = 4;            ///< emit count in bits 4-5

/// The canonical HPACK code tree is complete, so it has exactly 256
/// internal nodes — every decoder state fits a uint8_t.
inline constexpr std::size_t kHuffmanFsmStates = 256;

/// The flat 256 × 256 transition table (row = state, column = input byte),
/// built on first use from the code table.
const HuffmanFsmEntry* HuffmanFsmTable();

}  // namespace sww::hpack
