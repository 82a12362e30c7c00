#include "hpack/static_table.hpp"

#include <array>
#include <cstdint>

namespace sww::hpack {

namespace {

// RFC 7541, Appendix A — order is normative (indices are wire values).
constexpr std::array<StaticEntry, kStaticTableSize> kStaticTable = {{
    {":authority", ""},                    // 1
    {":method", "GET"},                    // 2
    {":method", "POST"},                   // 3
    {":path", "/"},                        // 4
    {":path", "/index.html"},              // 5
    {":scheme", "http"},                   // 6
    {":scheme", "https"},                  // 7
    {":status", "200"},                    // 8
    {":status", "204"},                    // 9
    {":status", "206"},                    // 10
    {":status", "304"},                    // 11
    {":status", "400"},                    // 12
    {":status", "404"},                    // 13
    {":status", "500"},                    // 14
    {"accept-charset", ""},                // 15
    {"accept-encoding", "gzip, deflate"},  // 16
    {"accept-language", ""},               // 17
    {"accept-ranges", ""},                 // 18
    {"accept", ""},                        // 19
    {"access-control-allow-origin", ""},   // 20
    {"age", ""},                           // 21
    {"allow", ""},                         // 22
    {"authorization", ""},                 // 23
    {"cache-control", ""},                 // 24
    {"content-disposition", ""},           // 25
    {"content-encoding", ""},              // 26
    {"content-language", ""},              // 27
    {"content-length", ""},                // 28
    {"content-location", ""},              // 29
    {"content-range", ""},                 // 30
    {"content-type", ""},                  // 31
    {"cookie", ""},                        // 32
    {"date", ""},                          // 33
    {"etag", ""},                          // 34
    {"expect", ""},                        // 35
    {"expires", ""},                       // 36
    {"from", ""},                          // 37
    {"host", ""},                          // 38
    {"if-match", ""},                      // 39
    {"if-modified-since", ""},             // 40
    {"if-none-match", ""},                 // 41
    {"if-range", ""},                      // 42
    {"if-unmodified-since", ""},           // 43
    {"last-modified", ""},                 // 44
    {"link", ""},                          // 45
    {"location", ""},                      // 46
    {"max-forwards", ""},                  // 47
    {"proxy-authenticate", ""},            // 48
    {"proxy-authorization", ""},           // 49
    {"range", ""},                         // 50
    {"referer", ""},                       // 51
    {"refresh", ""},                       // 52
    {"retry-after", ""},                   // 53
    {"server", ""},                        // 54
    {"set-cookie", ""},                    // 55
    {"strict-transport-security", ""},     // 56
    {"transfer-encoding", ""},             // 57
    {"user-agent", ""},                    // 58
    {"vary", ""},                          // 59
    {"via", ""},                           // 60
    {"www-authenticate", ""},              // 61
}};

// --- Perfect hash construction (all at compile time) ---------------------
//
// FNV-1a over name (and value) mixed with a seed; the builders search for
// the first seed under which every key lands in a distinct slot of a
// power-of-two table, so runtime lookup is hash → slot → one verifying
// compare.  The search runs in constexpr evaluation: a bad edit to the
// table that defeats the search is a compile error, not a silent slow path.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

constexpr std::uint64_t HashField(std::string_view name, std::string_view value,
                                  std::uint64_t seed) {
  std::uint64_t h = kFnvOffset ^ (seed * 0x9e3779b97f4a7c15ULL);
  for (char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  h = (h ^ 0xffu) * kFnvPrime;  // field separator (never a header octet here)
  for (char c : value) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return h ^ (h >> 32);
}

constexpr std::uint64_t HashName(std::string_view name, std::uint64_t seed) {
  std::uint64_t h = kFnvOffset ^ (seed * 0x9e3779b97f4a7c15ULL);
  for (char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return h ^ (h >> 32);
}

/// 512 slots comfortably hold 61 keys collision-free for a small seed.
constexpr std::size_t kHashSlots = 512;

struct PerfectTable {
  std::uint64_t seed = 0;
  std::array<std::uint8_t, kHashSlots> slot{};  // 0 = empty, else wire index
};

constexpr PerfectTable BuildExactTable() {
  for (std::uint64_t seed = 1;; ++seed) {
    PerfectTable table{};
    table.seed = seed;
    bool ok = true;
    for (std::size_t i = 0; i < kStaticTable.size() && ok; ++i) {
      const std::size_t s =
          HashField(kStaticTable[i].name, kStaticTable[i].value, seed) &
          (kHashSlots - 1);
      if (table.slot[s] != 0) {
        ok = false;
      } else {
        table.slot[s] = static_cast<std::uint8_t>(i + 1);
      }
    }
    if (ok) return table;
  }
}

constexpr PerfectTable BuildNameTable() {
  for (std::uint64_t seed = 1;; ++seed) {
    PerfectTable table{};
    table.seed = seed;
    bool ok = true;
    for (std::size_t i = 0; i < kStaticTable.size() && ok; ++i) {
      // Only the first entry per name is addressable by name (":method" →
      // 2, never 3); later duplicates share its slot.
      bool first = true;
      for (std::size_t j = 0; j < i; ++j) {
        if (kStaticTable[j].name == kStaticTable[i].name) {
          first = false;
          break;
        }
      }
      if (!first) continue;
      const std::size_t s = HashName(kStaticTable[i].name, seed) & (kHashSlots - 1);
      if (table.slot[s] != 0) {
        ok = false;
      } else {
        table.slot[s] = static_cast<std::uint8_t>(i + 1);
      }
    }
    if (ok) return table;
  }
}

constexpr PerfectTable kExactTable = BuildExactTable();
constexpr PerfectTable kNameTable = BuildNameTable();

}  // namespace

util::Result<StaticEntry> StaticTableEntry(std::size_t index) {
  if (index < 1 || index > kStaticTableSize) {
    return util::Error(util::ErrorCode::kCompression,
                       "hpack static table index out of range");
  }
  return kStaticTable[index - 1];
}

std::size_t StaticTableFind(std::string_view name, std::string_view value) {
  const std::size_t s =
      HashField(name, value, kExactTable.seed) & (kHashSlots - 1);
  const std::size_t index = kExactTable.slot[s];
  if (index == 0) return 0;
  const StaticEntry& entry = kStaticTable[index - 1];
  return (entry.name == name && entry.value == value) ? index : 0;
}

std::size_t StaticTableFindName(std::string_view name) {
  const std::size_t s = HashName(name, kNameTable.seed) & (kHashSlots - 1);
  const std::size_t index = kNameTable.slot[s];
  if (index == 0) return 0;
  return kStaticTable[index - 1].name == name ? index : 0;
}

}  // namespace sww::hpack
