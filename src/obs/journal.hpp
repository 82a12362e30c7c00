// journal.hpp — the wide-event request journal.
//
// Aggregates (registry.hpp) answer "what is p99?"; the flight recorder
// (flight.hpp) answers "which frames crossed the wire?".  Neither answers
// the tail-attribution question: *which fetch* pushed p99 where it is.
// The journal does: every completed fetch emits exactly one wide event —
// one record carrying the whole per-fetch trade-off surface the paper
// argues about (latency phases, bytes on the wire, modeled energy, cache
// state, device profile) keyed by the same `sww-trace` trace id that
// names the distributed trace and the histogram exemplars.  Bad
// percentile → exemplar trace id → journal record → flight-recorder
// frames, with no joins across log formats.
//
// Records live in an obs::Ring (ring.hpp) behind a mutex.  Emitters (the
// generative client, the CDN edge) record one event per fetch — a few
// hundred bytes at fetch rate, not frame rate — so the mutex is nowhere
// near any hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/ring.hpp"

namespace sww::obs {

/// One completed fetch as a single structured record.  Fields that do
/// not apply to a role stay at their zero values (an edge serve has no
/// asset bytes; a prompt-cache hit has no wire frames).
struct JournalRecord {
  /// Role that completed the fetch: "page_fetch" (client) or "edge".
  std::string kind;
  /// Trace id from the sww-trace header; 0 when the fetch was untraced.
  std::uint64_t trace_id = 0;
  /// Page path or content-item id.
  std::string path;
  /// Completion time on the modeled clock.
  std::uint64_t timestamp_nanos = 0;
  /// Serve/generation mode in effect ("generative", "prompt", ...).
  std::string mode;
  /// Energy device profile the cost was modeled on ("" when n/a).
  std::string device;
  /// "ok" or the error code string of the failure.
  std::string outcome;
  /// Cache state: "hit", "miss", or "none" (no cache consulted).
  std::string cache;
  /// Single-flight request coalescing state.  The sharded-edge
  /// coalescing tier is still a ROADMAP item; the field is part of the
  /// schema now so records stay comparable once it lands.
  bool coalesced = false;

  // Phase latencies, in modeled seconds.
  double total_seconds = 0.0;
  double wire_seconds = 0.0;        ///< total minus local generation work
  double generation_seconds = 0.0;  ///< modeled generation time
  double upscale_seconds = 0.0;

  // Payload and wire volume.
  std::uint64_t page_bytes = 0;
  std::uint64_t asset_bytes = 0;
  std::uint64_t wire_bytes_sent = 0;      ///< connection delta over the fetch
  std::uint64_t wire_bytes_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;

  /// Modeled energy for the fetch, in joules.
  double energy_joules = 0.0;
};

/// Bounded wide-event store on an obs::Ring.  Capacity 0 drops every
/// record (the counts still move).  Thread-safe.
///
/// Offered and dropped records also mirror into Registry::Default() as
/// the `journal.recorded_total` / `journal.dropped_total` counters, so
/// ring overflow is visible in /metrics and sww_top — not just in the
/// JSONL trailer of a journal export.
class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// The process-wide journal every emitter records into by default.
  /// Never destroyed; handles stay valid across Clear().  The initial
  /// capacity honors the SWW_JOURNAL_CAPACITY environment variable
  /// (fleet-scale load runs overflow the 8192 default instantly); unset
  /// or unparsable values fall back to kDefaultCapacity.
  static Journal& Default();

  explicit Journal(std::size_t capacity = kDefaultCapacity);
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  void Record(JournalRecord record);

  /// Buffered records, oldest first.
  std::vector<JournalRecord> Records() const;

  /// Resize the ring in place.  Shrinking keeps the newest `capacity`
  /// records; the evicted oldest ones count as dropped.
  void SetCapacity(std::size_t capacity);

  std::size_t capacity() const;
  /// Every record ever offered (buffered + overwritten).
  std::uint64_t total_recorded() const;
  /// Records lost to ring overwrite.
  std::uint64_t dropped() const;

  void Clear();

 private:
  mutable std::mutex mutex_;
  Ring<JournalRecord> ring_;
};

/// JSONL rendering: one compact JSON object per record, oldest first,
/// then one {"kind":"journal_summary",...} trailer (total/dropped/
/// capacity — drop accounting survives even when records were
/// overwritten, and an empty journal still renders a valid document).
/// Serialized through json::Value, so non-finite phase latencies render
/// as null, never as bare NaN/Inf tokens.
std::string RenderJournalJsonLines(const std::vector<JournalRecord>& records,
                                   std::uint64_t total_recorded,
                                   std::uint64_t dropped,
                                   std::size_t capacity);

/// Convenience overload over a live journal.
std::string RenderJournalJsonLines(const Journal& journal);

}  // namespace sww::obs
