// static_table.hpp — the HPACK static table (RFC 7541, Appendix A).
//
// 61 predefined header fields, indexed 1..61.  Index 0 is unused by the
// wire format.  The encoder also needs reverse lookup: exact (name, value)
// match and name-only match.  Both run through constexpr-built perfect
// hash tables (a seed found at compile time maps all entries to distinct
// slots), so a lookup is one hash, one slot load, and one verifying
// compare — O(1) instead of a 61-entry scan per header field.  The
// linear scans they replaced are the differential suite's oracles
// (tests/oracles/hpack.hpp).
#pragma once

#include <cstddef>
#include <string_view>

#include "util/error.hpp"

namespace sww::hpack {

struct StaticEntry {
  std::string_view name;
  std::string_view value;
};

inline constexpr std::size_t kStaticTableSize = 61;

/// Entry for wire index 1..61.  A bad index is peer-controlled wire data,
/// so it surfaces as a kCompression error (COMPRESSION_ERROR upstream),
/// never an exception.
util::Result<StaticEntry> StaticTableEntry(std::size_t index);

/// Wire index (1-based) of an exact (name, value) match, or 0 if none.
std::size_t StaticTableFind(std::string_view name, std::string_view value);

/// Wire index (1-based) of the first entry whose name matches, or 0.
std::size_t StaticTableFindName(std::string_view name);

}  // namespace sww::hpack
