// hpack.hpp — reference implementations of the HPACK fast lanes.
//
// The product decodes Huffman strings through a 256-state FSM and finds
// static-table entries through constexpr perfect hashes.  These are the
// simple implementations each fast lane replaced, kept only as oracles:
// the differential suites compare the fast lanes against them byte for
// byte, and sww_bench's hpack and wire_fastlane cases time them as the
// baseline lane.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace sww::oracles {

/// Bit-at-a-time walk of a code trie built from hpack::CodeForSymbol.
/// Same outputs and error classes as hpack::HuffmanDecode.
util::Result<std::string> HuffmanDecodeTrie(util::BytesView encoded);

/// Linear scans over the entries hpack::StaticTableEntry(1..61) returns:
/// the wire index of the first exact (name, value) match / first name
/// match, or 0.
std::size_t StaticTableFindLinear(std::string_view name, std::string_view value);
std::size_t StaticTableFindNameLinear(std::string_view name);

}  // namespace sww::oracles
