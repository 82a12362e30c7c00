// flight.hpp — the protocol flight recorder: frame-level wire taps.
//
// The paper's whole argument lives on the wire — one SETTINGS parameter
// deciding whether bytes or prompts flow — so the observability substrate
// must be able to show the frames themselves, not just per-component
// counters.  A ConnectionTap is a bounded ring (ring.hpp) of FrameRecords
// that an http2::Connection fills when (and only when) a tap is installed:
// with no observer the connection hot paths pay a single null-check.  The
// FlightRecorder owns the taps for a run so exporters and the run analyzer
// (report.hpp) can see every connection's frame log in one place.
//
// Records are generic on purpose (raw type byte + printable name + string
// detail pairs): obs:: stays below http2:: in the dependency order, and
// the same tap shape can record any framed protocol.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/ring.hpp"
#include "util/error.hpp"

namespace sww::obs {

enum class TapDirection : std::uint8_t { kSent, kReceived };

const char* TapDirectionName(TapDirection direction);

/// One frame crossing one connection, as seen by the wire tap.
struct FrameRecord {
  TapDirection direction = TapDirection::kSent;
  std::uint8_t type = 0;        ///< raw wire frame type byte
  std::string type_name;        ///< printable ("SETTINGS", "DATA", ...)
  std::uint32_t stream_id = 0;
  std::uint8_t flags = 0;
  std::uint32_t length = 0;     ///< payload length, excluding the 9-byte header
  std::uint64_t timestamp_nanos = 0;  ///< from the tracer's injectable clock
  /// Decoded key/value details: the HPACK-decoded header list for HEADERS
  /// frames, the parsed (name, value) entries for SETTINGS frames.
  std::vector<std::pair<std::string, std::string>> details;
  /// Monotone per-tap sequence number (stable merge order across taps).
  std::uint64_t sequence = 0;
};

/// Bounded per-connection frame log on an obs::Ring (capacity at least
/// 1).  Thread-safe (connections are single-threaded, but taps outlive
/// them and are read by exporters).
class ConnectionTap {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit ConnectionTap(std::string label,
                         std::size_t capacity = kDefaultCapacity);

  void Record(FrameRecord record);

  /// Attach decoded details (e.g. the HPACK-decoded header list) to the
  /// most recent record matching (direction, type, stream_id) that is
  /// still in the ring.  No-op when the record was already overwritten.
  void Annotate(TapDirection direction, std::uint8_t type,
                std::uint32_t stream_id,
                std::vector<std::pair<std::string, std::string>> details);

  /// Buffered records, oldest first.
  std::vector<FrameRecord> Records() const;

  const std::string& label() const { return label_; }
  /// Fixed at construction, so read without the lock.
  std::size_t capacity() const { return ring_.capacity(); }
  /// Every frame ever offered to Record (buffered + overwritten).
  std::uint64_t total_recorded() const;
  std::uint64_t total_sent() const;
  std::uint64_t total_received() const;
  /// Records lost to ring overwrite.
  std::uint64_t dropped() const;

  void Clear();

 private:
  mutable std::mutex mutex_;
  std::string label_;
  Ring<FrameRecord> ring_;
  std::uint64_t total_sent_ = 0;
};

/// Owns the ConnectionTaps of a run.  Components hold raw tap pointers
/// (taps live for the recorder's lifetime; Clear() empties the taps'
/// buffers but never destroys them, mirroring Registry::Reset semantics).
class FlightRecorder {
 public:
  static FlightRecorder& Default();

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Find-or-create a tap by label.  `capacity` is honored only on first
  /// creation.
  ConnectionTap& GetTap(std::string_view label,
                        std::size_t capacity = ConnectionTap::kDefaultCapacity);

  /// All taps, in creation order.
  std::vector<const ConnectionTap*> taps() const;

  /// Empty every tap's ring and counts; tap handles stay valid.
  void Clear();

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ConnectionTap>> taps_;
};

/// tcpdump-style rendering: one line per frame, taps merged in timestamp
/// (then tap, then sequence) order.
///   [12.000340] client > SETTINGS len=18 stream=0 flags=0x0 {INITIAL_WINDOW_SIZE: 1048576, GEN_ABILITY: 1}
std::string RenderFramesText(const std::vector<const ConnectionTap*>& taps);

/// JSONL rendering: one JSON object per frame in the same merged order,
/// followed by one {"kind":"tap_summary",...} line per tap (totals and
/// the dropped count survive even when the ring overwrote records).
std::string RenderFramesJsonLines(const std::vector<const ConnectionTap*>& taps);

}  // namespace sww::obs
