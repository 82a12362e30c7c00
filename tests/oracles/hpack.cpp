#include "oracles/hpack.hpp"

#include <vector>

#include "hpack/huffman.hpp"
#include "hpack/static_table.hpp"

namespace sww::oracles {

using util::Error;
using util::ErrorCode;

namespace {

struct TrieNode {
  int child[2] = {-1, -1};
  int symbol = -1;  // 0..256 when this node terminates a code
};

/// The decoding trie of the 257 codes (symbols 0..255 plus EOS).
const std::vector<TrieNode>& Trie() {
  static const std::vector<TrieNode> trie = [] {
    std::vector<TrieNode> nodes(1);
    for (unsigned sym = 0; sym <= 256; ++sym) {
      const hpack::HuffmanCode& code = hpack::CodeForSymbol(sym);
      std::size_t node = 0;
      for (int bit_index = code.length - 1; bit_index >= 0; --bit_index) {
        const int bit = (code.bits >> bit_index) & 1;
        if (nodes[node].child[bit] < 0) {
          nodes[node].child[bit] = static_cast<int>(nodes.size());
          nodes.emplace_back();
        }
        node = static_cast<std::size_t>(nodes[node].child[bit]);
      }
      nodes[node].symbol = static_cast<int>(sym);
    }
    return nodes;
  }();
  return trie;
}

/// The RFC 7541 Appendix A table copied out of hpack::StaticTableEntry
/// once, so a scan costs string compares, not a Result per entry.
const std::vector<hpack::StaticEntry>& StaticTable() {
  static const std::vector<hpack::StaticEntry> table = [] {
    std::vector<hpack::StaticEntry> entries;
    for (std::size_t index = 1; index <= hpack::kStaticTableSize; ++index) {
      entries.push_back(hpack::StaticTableEntry(index).value());
    }
    return entries;
  }();
  return table;
}

}  // namespace

util::Result<std::string> HuffmanDecodeTrie(util::BytesView encoded) {
  const std::vector<TrieNode>& trie = Trie();
  std::string out;
  out.reserve(encoded.size() + encoded.size() / 4 + 4);  // as HuffmanDecode
  std::size_t node = 0;
  int bits_since_symbol = 0;    // depth into the current (incomplete) code
  bool padding_all_ones = true; // RFC 7541 §5.2: padding must be EOS prefix
  for (std::uint8_t byte : encoded) {
    for (int bit_index = 7; bit_index >= 0; --bit_index) {
      const int bit = (byte >> bit_index) & 1;
      if (bit == 0) padding_all_ones = false;
      const int next = trie[node].child[bit];
      if (next < 0) {
        return Error(ErrorCode::kCompression, "huffman: invalid code path");
      }
      node = static_cast<std::size_t>(next);
      ++bits_since_symbol;
      const int symbol = trie[node].symbol;
      if (symbol >= 0) {
        if (symbol == 256) {
          return Error(ErrorCode::kCompression, "huffman: explicit EOS in data");
        }
        out.push_back(static_cast<char>(symbol));
        node = 0;
        bits_since_symbol = 0;
        padding_all_ones = true;
      }
    }
  }
  if (bits_since_symbol > 7) {
    return Error(ErrorCode::kCompression, "huffman: padding longer than 7 bits");
  }
  if (bits_since_symbol > 0 && !padding_all_ones) {
    return Error(ErrorCode::kCompression, "huffman: padding is not EOS prefix");
  }
  return out;
}

std::size_t StaticTableFindLinear(std::string_view name, std::string_view value) {
  const std::vector<hpack::StaticEntry>& table = StaticTable();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].name == name && table[i].value == value) return i + 1;
  }
  return 0;
}

std::size_t StaticTableFindNameLinear(std::string_view name) {
  const std::vector<hpack::StaticEntry>& table = StaticTable();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].name == name) return i + 1;
  }
  return 0;
}

}  // namespace sww::oracles
