// hpack_differential_test.cpp — randomized differential suite for the
// wire-path fast lanes.
//
// Every fast lane introduced for performance keeps its original, simple
// implementation as an oracle (tests/oracles/ unless noted):
//   * Huffman FSM decoder        vs the bit-at-a-time trie walk
//   * wide-accumulator encoder   vs a per-byte reference encoder (in-test)
//   * static-table perfect hash  vs the linear scan over RFC 7541 App. A
//   * ring-buffer dynamic table  vs a deque-of-entries reference model (in-test)
//   * arena frame serialization  vs SerializeFrame
// The suites drive each pair with thousands of seeded random inputs —
// valid, corrupted, and truncated — and require byte-identical results.
// Seeds are fixed so failures reproduce exactly.
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hpack/dynamic_table.hpp"
#include "hpack/huffman.hpp"
#include "hpack/static_table.hpp"
#include "http2/frame.hpp"
#include "oracles/hpack.hpp"
#include "oracles/http2.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace sww;
using hpack::DynamicTable;
using util::Bytes;
using util::BytesView;

std::string RandomString(util::Rng& rng, std::size_t max_len) {
  std::string out;
  const std::size_t len = rng.NextIndex(max_len + 1);
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    // Mix of common header octets and arbitrary bytes, so both the short
    // 5-bit codes and the long 20+-bit codes get exercised.
    if (rng.NextBool(0.7)) {
      static constexpr std::string_view kCommon =
          "abcdefghijklmnopqrstuvwxyz0123456789-_.:/=%&?";
      out.push_back(kCommon[rng.NextIndex(kCommon.size())]);
    } else {
      out.push_back(static_cast<char>(rng.NextBounded(256)));
    }
  }
  return out;
}

/// The original encoder shape: one symbol at a time, pushing each
/// completed byte — the oracle for the wide-accumulator fast lane.
void ReferenceHuffmanEncode(std::string_view text, Bytes& out) {
  std::uint64_t accumulator = 0;
  int bit_count = 0;
  for (char c : text) {
    const hpack::HuffmanCode& code =
        hpack::CodeForSymbol(static_cast<unsigned char>(c));
    accumulator = (accumulator << code.length) | code.bits;
    bit_count += code.length;
    while (bit_count >= 8) {
      bit_count -= 8;
      out.push_back(static_cast<std::uint8_t>(accumulator >> bit_count));
    }
  }
  if (bit_count > 0) {
    const int pad = 8 - bit_count;
    accumulator = (accumulator << pad) | ((1u << pad) - 1);  // EOS prefix
    out.push_back(static_cast<std::uint8_t>(accumulator));
  }
}

// --- Huffman: FSM vs trie --------------------------------------------------

TEST(HuffmanDifferential, EncoderMatchesReferenceOnRandomStrings) {
  util::Rng rng(0x5157000000000001ULL);
  for (int i = 0; i < 10000; ++i) {
    const std::string text = RandomString(rng, 96);
    Bytes fast;
    hpack::HuffmanEncode(text, fast);
    Bytes reference;
    ReferenceHuffmanEncode(text, reference);
    ASSERT_EQ(fast, reference) << "iteration " << i;
    ASSERT_EQ(fast.size(), hpack::HuffmanEncodedSize(text)) << "iteration " << i;
  }
}

TEST(HuffmanDifferential, FsmMatchesTrieOnRandomValidInput) {
  util::Rng rng(0x5157000000000002ULL);
  for (int i = 0; i < 10000; ++i) {
    const std::string text = RandomString(rng, 96);
    Bytes encoded;
    hpack::HuffmanEncode(text, encoded);
    auto fsm = hpack::HuffmanDecode(encoded);
    auto trie = oracles::HuffmanDecodeTrie(encoded);
    ASSERT_TRUE(fsm.ok()) << "iteration " << i;
    ASSERT_TRUE(trie.ok()) << "iteration " << i;
    ASSERT_EQ(fsm.value(), text) << "iteration " << i;
    ASSERT_EQ(fsm.value(), trie.value()) << "iteration " << i;
  }
}

TEST(HuffmanDifferential, FsmMatchesTrieOnRandomCorruptedInput) {
  util::Rng rng(0x5157000000000003ULL);
  int errors_seen = 0;
  for (int i = 0; i < 10000; ++i) {
    // Raw random bytes: mostly invalid encodings (walks through EOS, bad
    // padding, truncated codes) plus the occasional accidental valid one.
    Bytes blob(rng.NextIndex(48), 0);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.NextBounded(256));
    auto fsm = hpack::HuffmanDecode(blob);
    auto trie = oracles::HuffmanDecodeTrie(blob);
    ASSERT_EQ(fsm.ok(), trie.ok()) << "iteration " << i;
    if (fsm.ok()) {
      ASSERT_EQ(fsm.value(), trie.value()) << "iteration " << i;
    } else {
      ASSERT_EQ(fsm.error().message, trie.error().message) << "iteration " << i;
      ++errors_seen;
    }
  }
  EXPECT_GT(errors_seen, 1000);  // random blobs must actually exercise errors
}

TEST(HuffmanDifferential, FsmMatchesTrieOnTruncatedValidInput) {
  util::Rng rng(0x5157000000000004ULL);
  for (int i = 0; i < 2000; ++i) {
    const std::string text = RandomString(rng, 64);
    Bytes encoded;
    hpack::HuffmanEncode(text, encoded);
    if (encoded.empty()) continue;
    const std::size_t cut = rng.NextIndex(encoded.size());
    const BytesView prefix(encoded.data(), cut);
    auto fsm = hpack::HuffmanDecode(prefix);
    auto trie = oracles::HuffmanDecodeTrie(prefix);
    ASSERT_EQ(fsm.ok(), trie.ok()) << "iteration " << i;
    if (fsm.ok()) {
      ASSERT_EQ(fsm.value(), trie.value()) << "iteration " << i;
    } else {
      ASSERT_EQ(fsm.error().message, trie.error().message) << "iteration " << i;
    }
  }
}

TEST(HuffmanDifferential, ExplicitEosRejectedByBothDecoders) {
  // EOS is 30 ones followed by 2 more padding ones: 0xff 0xff 0xff 0xff.
  const Bytes eos = {0xff, 0xff, 0xff, 0xff};
  auto fsm = hpack::HuffmanDecode(eos);
  auto trie = oracles::HuffmanDecodeTrie(eos);
  ASSERT_FALSE(fsm.ok());
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(fsm.error().message, trie.error().message);
  EXPECT_EQ(fsm.error().message, "huffman: explicit EOS in data");
}

TEST(HuffmanDifferential, OverlongPaddingRejectedByBothDecoders) {
  // 'a' = 5 bits (00011); one full byte of ones after it is 8 bits of
  // padding — more than the 7 the RFC allows.
  Bytes encoded;
  hpack::HuffmanEncode("a", encoded);
  ASSERT_EQ(encoded.size(), 1u);
  encoded.push_back(0xff);
  auto fsm = hpack::HuffmanDecode(encoded);
  auto trie = oracles::HuffmanDecodeTrie(encoded);
  ASSERT_FALSE(fsm.ok());
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(fsm.error().message, trie.error().message);
  EXPECT_EQ(fsm.error().message, "huffman: padding longer than 7 bits");
}

TEST(HuffmanDifferential, NonOnesPaddingRejectedByBothDecoders) {
  // 'a' = 00011; zero padding to the byte boundary is not an EOS prefix.
  const Bytes encoded = {0x18};  // 00011000
  auto fsm = hpack::HuffmanDecode(encoded);
  auto trie = oracles::HuffmanDecodeTrie(encoded);
  ASSERT_FALSE(fsm.ok());
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(fsm.error().message, trie.error().message);
  EXPECT_EQ(fsm.error().message, "huffman: padding is not EOS prefix");
}

TEST(HuffmanDifferential, FsmTableInvariants) {
  const hpack::HuffmanFsmEntry* table = hpack::HuffmanFsmTable();
  ASSERT_NE(table, nullptr);
  // Entry flags describe the *destination* of each transition: every
  // non-failing transition back to the root must be accepting, no step may
  // emit more than 2 symbols (min code length is 5 bits), and the empty
  // input (never leaving the root) must decode to the empty string.
  for (std::size_t s = 0; s < hpack::kHuffmanFsmStates; ++s) {
    for (std::size_t b = 0; b < 256; ++b) {
      const hpack::HuffmanFsmEntry& e = table[(s << 8) | b];
      if ((e.flags & hpack::kHuffmanFsmFail) != 0) continue;
      if (e.next == 0) {
        EXPECT_NE(e.flags & hpack::kHuffmanFsmAccept, 0)
            << "state " << s << " byte " << b;
      }
      const unsigned emit = e.flags >> hpack::kHuffmanFsmEmitShift;
      EXPECT_LE(emit, 2u) << "state " << s << " byte " << b;
    }
  }
  auto empty = hpack::HuffmanDecode({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), "");
}

// --- Static table: perfect hash vs linear scan -----------------------------

TEST(StaticTableDifferential, PerfectHashMatchesLinearOnAllEntries) {
  for (std::size_t index = 1; index <= hpack::kStaticTableSize; ++index) {
    auto entry = hpack::StaticTableEntry(index);
    ASSERT_TRUE(entry.ok());
    const std::string name(entry.value().name);
    const std::string value(entry.value().value);
    EXPECT_EQ(hpack::StaticTableFind(name, value),
              oracles::StaticTableFindLinear(name, value))
        << name << ": " << value;
    EXPECT_EQ(hpack::StaticTableFindName(name),
              oracles::StaticTableFindNameLinear(name))
        << name;
    // The linear scan is ground truth for which of the duplicate-name
    // entries is addressable (the first one).
    EXPECT_EQ(hpack::StaticTableFindName(name),
              oracles::StaticTableFindNameLinear(name));
  }
}

TEST(StaticTableDifferential, PerfectHashMatchesLinearOnNearMisses) {
  util::Rng rng(0x5157000000000005ULL);
  for (std::size_t index = 1; index <= hpack::kStaticTableSize; ++index) {
    auto entry = hpack::StaticTableEntry(index);
    ASSERT_TRUE(entry.ok());
    std::string name(entry.value().name);
    std::string value(entry.value().value);
    // Mutations that must all miss (or hit exactly what the scan hits):
    // changed value, flipped character, extended name, truncated name.
    const std::string wrong_value = value + "x";
    EXPECT_EQ(hpack::StaticTableFind(name, wrong_value),
              oracles::StaticTableFindLinear(name, wrong_value));
    std::string flipped = name;
    flipped[rng.NextIndex(flipped.size())] ^= 0x20;
    EXPECT_EQ(hpack::StaticTableFind(flipped, value),
              oracles::StaticTableFindLinear(flipped, value));
    EXPECT_EQ(hpack::StaticTableFindName(flipped),
              oracles::StaticTableFindNameLinear(flipped));
    const std::string extended = name + "-x";
    EXPECT_EQ(hpack::StaticTableFindName(extended),
              oracles::StaticTableFindNameLinear(extended));
    const std::string truncated = name.substr(0, name.size() - 1);
    EXPECT_EQ(hpack::StaticTableFindName(truncated),
              oracles::StaticTableFindNameLinear(truncated));
  }
}

TEST(StaticTableDifferential, PerfectHashMatchesLinearOnRandomProbes) {
  util::Rng rng(0x5157000000000006ULL);
  for (int i = 0; i < 10000; ++i) {
    const std::string name = RandomString(rng, 24);
    const std::string value = RandomString(rng, 24);
    ASSERT_EQ(hpack::StaticTableFind(name, value),
              oracles::StaticTableFindLinear(name, value))
        << "iteration " << i;
    ASSERT_EQ(hpack::StaticTableFindName(name),
              oracles::StaticTableFindNameLinear(name))
        << "iteration " << i;
  }
}

// --- Dynamic table: ring buffer vs reference deque model -------------------

/// Straight-line model of RFC 7541 §4: a deque, newest at the front, with
/// linear scans — the shape the ring-buffer table replaced.
class ReferenceDynamicTable {
 public:
  explicit ReferenceDynamicTable(std::size_t max_size) : max_size_(max_size) {}

  void Insert(const std::string& name, const std::string& value) {
    const std::size_t entry_size = name.size() + value.size() + 32;
    if (entry_size > max_size_) {
      entries_.clear();
      size_ = 0;
      return;
    }
    while (size_ + entry_size > max_size_) Evict();
    entries_.push_front({name, value});
    size_ += entry_size;
  }

  void SetMaxSize(std::size_t max_size) {
    max_size_ = max_size;
    while (size_ > max_size_) Evict();
  }

  std::size_t Find(const std::string& name, const std::string& value) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == name && entries_[i].second == value) return i;
    }
    return DynamicTable::npos;
  }

  std::size_t FindName(const std::string& name) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == name) return i;
    }
    return DynamicTable::npos;
  }

  const std::pair<std::string, std::string>& At(std::size_t i) const {
    return entries_[i];
  }
  std::size_t entry_count() const { return entries_.size(); }
  std::size_t size_bytes() const { return size_; }

 private:
  void Evict() {
    size_ -= entries_.back().first.size() + entries_.back().second.size() + 32;
    entries_.pop_back();
  }

  std::deque<std::pair<std::string, std::string>> entries_;
  std::size_t size_ = 0;
  std::size_t max_size_;
};

TEST(DynamicTableDifferential, RingBufferMatchesReferenceUnderRandomOps) {
  util::Rng rng(0x5157000000000007ULL);
  // A small name pool forces duplicate names (the interned index's hard
  // case) and frequent hits; random values force misses too.
  const std::vector<std::string> names = {"a", "bb", "ccc", "x-custom",
                                          "set-cookie", "content-type"};
  DynamicTable table(512);
  ReferenceDynamicTable reference(512);
  for (int i = 0; i < 10000; ++i) {
    const std::string& name = names[rng.NextIndex(names.size())];
    const std::string value = RandomString(rng, 24);
    const int op = static_cast<int>(rng.NextBounded(10));
    if (op < 6) {
      table.Insert(name, value);
      reference.Insert(name, value);
    } else if (op < 8) {
      ASSERT_EQ(table.Find(name, value), reference.Find(name, value))
          << "iteration " << i;
      ASSERT_EQ(table.FindName(name), reference.FindName(name))
          << "iteration " << i;
    } else if (op == 8 && reference.entry_count() > 0) {
      const std::size_t index = rng.NextIndex(reference.entry_count());
      ASSERT_EQ(table.At(index).name, reference.At(index).first);
      ASSERT_EQ(table.At(index).value, reference.At(index).second);
    } else {
      // Exercise evict-on-shrink and re-grow; occasionally shrink below a
      // single entry's overhead to force a full flush.
      const std::size_t new_max = rng.NextBool(0.1) ? 16 : 64 + rng.NextIndex(512);
      table.SetMaxSize(new_max);
      reference.SetMaxSize(new_max);
    }
    ASSERT_EQ(table.entry_count(), reference.entry_count()) << "iteration " << i;
    ASSERT_EQ(table.size_bytes(), reference.size_bytes()) << "iteration " << i;
    // Full-state audit every so often (O(n²) against the reference).
    if (i % 500 == 0) {
      for (std::size_t j = 0; j < reference.entry_count(); ++j) {
        ASSERT_EQ(table.At(j).name, reference.At(j).first) << "iteration " << i;
        ASSERT_EQ(table.At(j).value, reference.At(j).second) << "iteration " << i;
      }
    }
  }
}

TEST(DynamicTableDifferential, FindPrefersNewestAmongDuplicates) {
  DynamicTable table(4096);
  table.Insert("set-cookie", "a=1");
  table.Insert("set-cookie", "b=2");
  table.Insert("set-cookie", "a=1");  // duplicate of the oldest
  // Newest insertion of ("set-cookie", "a=1") is index 0.
  EXPECT_EQ(table.Find("set-cookie", "a=1"), 0u);
  EXPECT_EQ(table.Find("set-cookie", "b=2"), 1u);
  EXPECT_EQ(table.FindName("set-cookie"), 0u);
}

// --- Frame serialization: arena vs SerializeFrame --------------------------

TEST(FrameDifferential, AppendFrameMatchesSerializeFrame) {
  util::Rng rng(0x5157000000000008ULL);
  util::BytesArena arena;
  for (int i = 0; i < 2000; ++i) {
    http2::Frame frame;
    frame.header.type = static_cast<http2::FrameType>(rng.NextBounded(10));
    frame.header.flags = static_cast<std::uint8_t>(rng.NextBounded(256));
    frame.header.stream_id = static_cast<std::uint32_t>(rng.NextU64());
    frame.payload.resize(rng.NextIndex(256));
    for (auto& b : frame.payload) {
      b = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
    const Bytes expected = oracles::SerializeFrame(frame);

    arena.Clear();
    http2::FrameRef ref;
    ref.header = frame.header;
    ref.payload = BytesView(frame.payload);
    http2::AppendFrame(ref, arena);
    const BytesView got = arena.View();
    ASSERT_EQ(Bytes(got.begin(), got.end()), expected) << "iteration " << i;
  }
}

TEST(FrameDifferential, ArenaReachesSteadyStateZeroAllocations) {
  util::BytesArena arena;
  Bytes payload(1024, 0x42);
  http2::FrameRef ref;
  ref.header.type = http2::FrameType::kData;
  ref.header.stream_id = 1;
  ref.payload = BytesView(payload);
  // Warm up, then the same workload must stop allocating entirely.
  for (int i = 0; i < 8; ++i) {
    arena.Clear();
    for (int j = 0; j < 16; ++j) http2::AppendFrame(ref, arena);
  }
  const std::uint64_t warm = arena.allocations();
  for (int i = 0; i < 100; ++i) {
    arena.Clear();
    for (int j = 0; j < 16; ++j) http2::AppendFrame(ref, arena);
  }
  EXPECT_EQ(arena.allocations(), warm);
}

}  // namespace
