#include "hpack/huffman.hpp"

#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

namespace sww::hpack {

using util::Bytes;
using util::BytesView;
using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

// RFC 7541, Appendix B.  Index = symbol (0..255), entry 256 = EOS.
constexpr std::array<HuffmanCode, 257> kCodes = {{
    {0x1ff8, 13},     {0x7fffd8, 23},   {0xfffffe2, 28},  {0xfffffe3, 28},
    {0xfffffe4, 28},  {0xfffffe5, 28},  {0xfffffe6, 28},  {0xfffffe7, 28},
    {0xfffffe8, 28},  {0xffffea, 24},   {0x3ffffffc, 30}, {0xfffffe9, 28},
    {0xfffffea, 28},  {0x3ffffffd, 30}, {0xfffffeb, 28},  {0xfffffec, 28},
    {0xfffffed, 28},  {0xfffffee, 28},  {0xfffffef, 28},  {0xffffff0, 28},
    {0xffffff1, 28},  {0xffffff2, 28},  {0x3ffffffe, 30}, {0xffffff3, 28},
    {0xffffff4, 28},  {0xffffff5, 28},  {0xffffff6, 28},  {0xffffff7, 28},
    {0xffffff8, 28},  {0xffffff9, 28},  {0xffffffa, 28},  {0xffffffb, 28},
    {0x14, 6},        {0x3f8, 10},      {0x3f9, 10},      {0xffa, 12},
    {0x1ff9, 13},     {0x15, 6},        {0xf8, 8},        {0x7fa, 11},
    {0x3fa, 10},      {0x3fb, 10},      {0xf9, 8},        {0x7fb, 11},
    {0xfa, 8},        {0x16, 6},        {0x17, 6},        {0x18, 6},
    {0x0, 5},         {0x1, 5},         {0x2, 5},         {0x19, 6},
    {0x1a, 6},        {0x1b, 6},        {0x1c, 6},        {0x1d, 6},
    {0x1e, 6},        {0x1f, 6},        {0x5c, 7},        {0xfb, 8},
    {0x7ffc, 15},     {0x20, 6},        {0xffb, 12},      {0x3fc, 10},
    {0x1ffa, 13},     {0x21, 6},        {0x5d, 7},        {0x5e, 7},
    {0x5f, 7},        {0x60, 7},        {0x61, 7},        {0x62, 7},
    {0x63, 7},        {0x64, 7},        {0x65, 7},        {0x66, 7},
    {0x67, 7},        {0x68, 7},        {0x69, 7},        {0x6a, 7},
    {0x6b, 7},        {0x6c, 7},        {0x6d, 7},        {0x6e, 7},
    {0x6f, 7},        {0x70, 7},        {0x71, 7},        {0x72, 7},
    {0xfc, 8},        {0x73, 7},        {0xfd, 8},        {0x1ffb, 13},
    {0x7fff0, 19},    {0x1ffc, 13},     {0x3ffc, 14},     {0x22, 6},
    {0x7ffd, 15},     {0x3, 5},         {0x23, 6},        {0x4, 5},
    {0x24, 6},        {0x5, 5},         {0x25, 6},        {0x26, 6},
    {0x27, 6},        {0x6, 5},         {0x74, 7},        {0x75, 7},
    {0x28, 6},        {0x29, 6},        {0x2a, 6},        {0x7, 5},
    {0x2b, 6},        {0x76, 7},        {0x2c, 6},        {0x8, 5},
    {0x9, 5},         {0x2d, 6},        {0x77, 7},        {0x78, 7},
    {0x79, 7},        {0x7a, 7},        {0x7b, 7},        {0x7ffe, 15},
    {0x7fc, 11},      {0x3ffd, 14},     {0x1ffd, 13},     {0xffffffc, 28},
    {0xfffe6, 20},    {0x3fffd2, 22},   {0xfffe7, 20},    {0xfffe8, 20},
    {0x3fffd3, 22},   {0x3fffd4, 22},   {0x3fffd5, 22},   {0x7fffd9, 23},
    {0x3fffd6, 22},   {0x7fffda, 23},   {0x7fffdb, 23},   {0x7fffdc, 23},
    {0x7fffdd, 23},   {0x7fffde, 23},   {0xffffeb, 24},   {0x7fffdf, 23},
    {0xffffec, 24},   {0xffffed, 24},   {0x3fffd7, 22},   {0x7fffe0, 23},
    {0xffffee, 24},   {0x7fffe1, 23},   {0x7fffe2, 23},   {0x7fffe3, 23},
    {0x7fffe4, 23},   {0x1fffdc, 21},   {0x3fffd8, 22},   {0x7fffe5, 23},
    {0x3fffd9, 22},   {0x7fffe6, 23},   {0x7fffe7, 23},   {0xffffef, 24},
    {0x3fffda, 22},   {0x1fffdd, 21},   {0xfffe9, 20},    {0x3fffdb, 22},
    {0x3fffdc, 22},   {0x7fffe8, 23},   {0x7fffe9, 23},   {0x1fffde, 21},
    {0x7fffea, 23},   {0x3fffdd, 22},   {0x3fffde, 22},   {0xfffff0, 24},
    {0x1fffdf, 21},   {0x3fffdf, 22},   {0x7fffeb, 23},   {0x7fffec, 23},
    {0x1fffe0, 21},   {0x1fffe1, 21},   {0x3fffe0, 22},   {0x1fffe2, 21},
    {0x7fffed, 23},   {0x3fffe1, 22},   {0x7fffee, 23},   {0x7fffef, 23},
    {0xfffea, 20},    {0x3fffe2, 22},   {0x3fffe3, 22},   {0x3fffe4, 22},
    {0x7ffff0, 23},   {0x3fffe5, 22},   {0x3fffe6, 22},   {0x7ffff1, 23},
    {0x3ffffe0, 26},  {0x3ffffe1, 26},  {0xfffeb, 20},    {0x7fff1, 19},
    {0x3fffe7, 22},   {0x7ffff2, 23},   {0x3fffe8, 22},   {0x1ffffec, 25},
    {0x3ffffe2, 26},  {0x3ffffe3, 26},  {0x3ffffe4, 26},  {0x7ffffde, 27},
    {0x7ffffdf, 27},  {0x3ffffe5, 26},  {0xfffff1, 24},   {0x1ffffed, 25},
    {0x7fff2, 19},    {0x1fffe3, 21},   {0x3ffffe6, 26},  {0x7ffffe0, 27},
    {0x7ffffe1, 27},  {0x3ffffe7, 26},  {0x7ffffe2, 27},  {0xfffff2, 24},
    {0x1fffe4, 21},   {0x1fffe5, 21},   {0x3ffffe8, 26},  {0x3ffffe9, 26},
    {0xffffffd, 28},  {0x7ffffe3, 27},  {0x7ffffe4, 27},  {0x7ffffe5, 27},
    {0xfffec, 20},    {0xfffff3, 24},   {0xfffed, 20},    {0x1fffe6, 21},
    {0x3fffe9, 22},   {0x1fffe7, 21},   {0x1fffe8, 21},   {0x7ffff3, 23},
    {0x3fffea, 22},   {0x3fffeb, 22},   {0x1ffffee, 25},  {0x1ffffef, 25},
    {0xfffff4, 24},   {0xfffff5, 24},   {0x3ffffea, 26},  {0x7ffff4, 23},
    {0x3ffffeb, 26},  {0x7ffffe6, 27},  {0x3ffffec, 26},  {0x3ffffed, 26},
    {0x7ffffe7, 27},  {0x7ffffe8, 27},  {0x7ffffe9, 27},  {0x7ffffea, 27},
    {0x7ffffeb, 27},  {0xffffffe, 28},  {0x7ffffec, 27},  {0x7ffffed, 27},
    {0x7ffffee, 27},  {0x7ffffef, 27},  {0x7fffff0, 27},  {0x3ffffee, 26},
    {0x3fffffff, 30},
}};

/// Decoding trie node.  The static code has ≤ 511 internal nodes; we build
/// the trie once (thread-safe via static local init) and share it.
struct TrieNode {
  int child[2] = {-1, -1};
  int symbol = -1;  // 0..256 when this node terminates a code
};

class Trie {
 public:
  Trie() {
    nodes_.reserve(600);
    nodes_.emplace_back();
    for (unsigned sym = 0; sym < kCodes.size(); ++sym) {
      const HuffmanCode& code = kCodes[sym];
      int node = 0;
      for (int bit_index = code.length - 1; bit_index >= 0; --bit_index) {
        const int bit = (code.bits >> bit_index) & 1;
        if (nodes_[static_cast<std::size_t>(node)].child[bit] < 0) {
          nodes_[static_cast<std::size_t>(node)].child[bit] =
              static_cast<int>(nodes_.size());
          nodes_.emplace_back();
        }
        node = nodes_[static_cast<std::size_t>(node)].child[bit];
      }
      nodes_[static_cast<std::size_t>(node)].symbol = static_cast<int>(sym);
    }
  }

  const TrieNode& node(int index) const {
    return nodes_[static_cast<std::size_t>(index)];
  }

  std::size_t node_count() const { return nodes_.size(); }

 private:
  std::vector<TrieNode> nodes_;
};

const Trie& GetTrie() {
  static const Trie trie;
  return trie;
}

/// Builds the flat per-byte transition table from the trie.  The canonical
/// code is complete (Kraft sum exactly 1), so the trie has exactly 256
/// internal nodes, every internal node has both children, and a uint8_t
/// state id covers the whole machine.
class FsmBuilder {
 public:
  FsmBuilder() {
    const Trie& trie = GetTrie();

    // Enumerate internal nodes breadth-first from the root, recording for
    // each its state id, depth (== bits consumed since the last emitted
    // symbol when the decoder sits on it), and whether its path from the
    // root is all ones (an EOS prefix — the only legal padding).
    std::vector<int> state_of_node;          // trie node index -> state id
    std::vector<int> node_of_state;          // state id -> trie node index
    std::vector<int> depth_of_state;
    std::vector<bool> all_ones_of_state;
    state_of_node.assign(trie.node_count(), -1);
    auto add_state = [&](int node, int depth, bool all_ones) {
      state_of_node[static_cast<std::size_t>(node)] =
          static_cast<int>(node_of_state.size());
      node_of_state.push_back(node);
      depth_of_state.push_back(depth);
      all_ones_of_state.push_back(all_ones);
    };
    add_state(0, 0, true);
    for (std::size_t s = 0; s < node_of_state.size(); ++s) {
      const TrieNode& node = trie.node(node_of_state[s]);
      for (int bit = 0; bit < 2; ++bit) {
        const int child = node.child[bit];
        if (child < 0 || trie.node(child).symbol >= 0) continue;  // leaf
        add_state(child, depth_of_state[s] + 1,
                  all_ones_of_state[s] && bit == 1);
      }
    }
    if (node_of_state.size() != kHuffmanFsmStates) {
      throw std::logic_error("hpack huffman code tree is not complete");
    }

    auto end_flags = [&](int state) -> std::uint8_t {
      // Classification if the input ends on this state, matching the trie
      // oracle's check order: root is fine, >7 bits of any incomplete code
      // is "padding longer than 7 bits", a short non-all-ones remainder is
      // "padding is not EOS prefix".
      if (state == 0) return kHuffmanFsmAccept;
      if (depth_of_state[static_cast<std::size_t>(state)] > 7)
        return kHuffmanFsmPadLong;
      return all_ones_of_state[static_cast<std::size_t>(state)]
                 ? kHuffmanFsmAccept
                 : 0;
    };

    for (std::size_t state = 0; state < kHuffmanFsmStates; ++state) {
      for (unsigned byte = 0; byte < 256; ++byte) {
        HuffmanFsmEntry& entry =
            table_[(state << 8) | byte];
        int node = node_of_state[state];
        int emit = 0;
        bool fail = false;
        bool fail_eos = false;
        for (int bit_index = 7; bit_index >= 0 && !fail; --bit_index) {
          const int bit = (byte >> bit_index) & 1;
          const int next = trie.node(node).child[bit];
          if (next < 0) {  // unreachable for a complete code; be safe
            fail = true;
            break;
          }
          const int symbol = trie.node(next).symbol;
          if (symbol < 0) {
            node = next;
          } else if (symbol == 256) {
            fail = fail_eos = true;
          } else {
            if (emit < 2) entry.symbols[emit] = static_cast<std::uint8_t>(symbol);
            ++emit;
            node = 0;  // leaf consumed; next code starts at the root
          }
        }
        if (fail || emit > 2) {
          entry = HuffmanFsmEntry{};
          entry.flags = static_cast<std::uint8_t>(
              kHuffmanFsmFail | (fail_eos ? kHuffmanFsmFailEos : 0));
          continue;
        }
        entry.next = static_cast<std::uint8_t>(
            state_of_node[static_cast<std::size_t>(node)]);
        entry.flags = static_cast<std::uint8_t>(
            end_flags(state_of_node[static_cast<std::size_t>(node)]) |
            (emit << kHuffmanFsmEmitShift));
      }
    }
  }

  const HuffmanFsmEntry* table() const { return table_.data(); }

 private:
  std::array<HuffmanFsmEntry, kHuffmanFsmStates * 256> table_{};
};

}  // namespace

const HuffmanFsmEntry* HuffmanFsmTable() {
  static const FsmBuilder builder;
  return builder.table();
}

const HuffmanCode& CodeForSymbol(unsigned symbol) {
  return kCodes.at(symbol);
}

std::size_t HuffmanEncodedSize(std::string_view text) {
  std::size_t bits = 0;
  for (char c : text) {
    bits += kCodes[static_cast<std::uint8_t>(c)].length;
  }
  return (bits + 7) / 8;
}

void HuffmanEncode(std::string_view text, Bytes& out) {
  // Pre-size the output once and fill it through a wide accumulator:
  // codes (≤ 30 bits each) pack into a 128-bit window and flush as whole
  // 64-bit words, instead of growing the vector a byte at a time.
  const std::size_t base = out.size();
  out.resize(base + HuffmanEncodedSize(text));
  std::uint8_t* dst = out.data() + base;
  unsigned __int128 accumulator = 0;
  int bit_count = 0;
  for (char c : text) {
    const HuffmanCode& code = kCodes[static_cast<std::uint8_t>(c)];
    accumulator = (accumulator << code.length) | code.bits;
    bit_count += code.length;
    if (bit_count >= 64) {
      bit_count -= 64;
      const std::uint64_t word =
          static_cast<std::uint64_t>(accumulator >> bit_count);
      for (int shift = 56; shift >= 0; shift -= 8) {
        *dst++ = static_cast<std::uint8_t>(word >> shift);
      }
    }
  }
  if ((bit_count & 7) != 0) {
    // Pad with the most significant bits of EOS (all ones).
    const int pad = 8 - (bit_count & 7);
    accumulator = (accumulator << pad) | ((1u << pad) - 1u);
    bit_count += pad;
  }
  while (bit_count >= 8) {
    bit_count -= 8;
    *dst++ = static_cast<std::uint8_t>(accumulator >> bit_count);
  }
}

namespace {
/// Reserve for the common case (~6.5 coded bits per symbol in header text,
/// an ~1.25× expansion) instead of the 8/5 worst case; rare all-5-bit-code
/// inputs cost one buffer growth instead of every input over-reserving.
std::size_t DecodedSizeHint(std::size_t encoded_size) {
  return encoded_size + encoded_size / 4 + 4;
}
}  // namespace

Result<std::string> HuffmanDecode(BytesView encoded) {
  const HuffmanFsmEntry* table = HuffmanFsmTable();
  std::string out;
  out.reserve(DecodedSizeHint(encoded.size()));
  std::uint32_t state = 0;
  std::uint8_t end_flags = kHuffmanFsmAccept;  // empty input is valid
  for (std::uint8_t byte : encoded) {
    const HuffmanFsmEntry& entry = table[(state << 8) | byte];
    if (entry.flags & kHuffmanFsmFail) {
      if (entry.flags & kHuffmanFsmFailEos) {
        return Error(ErrorCode::kCompression, "huffman: explicit EOS in data");
      }
      return Error(ErrorCode::kCompression, "huffman: invalid code path");
    }
    const int emit = entry.flags >> kHuffmanFsmEmitShift;
    if (emit != 0) {
      out.push_back(static_cast<char>(entry.symbols[0]));
      if (emit == 2) out.push_back(static_cast<char>(entry.symbols[1]));
    }
    state = entry.next;
    end_flags = entry.flags;
  }
  if ((end_flags & kHuffmanFsmAccept) == 0) {
    if (end_flags & kHuffmanFsmPadLong) {
      return Error(ErrorCode::kCompression, "huffman: padding longer than 7 bits");
    }
    return Error(ErrorCode::kCompression, "huffman: padding is not EOS prefix");
  }
  return out;
}

}  // namespace sww::hpack
