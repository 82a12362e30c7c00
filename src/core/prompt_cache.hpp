// prompt_cache.hpp — client-side caching of prompt-form pages.
//
// A consequence of SWW the paper's §7 hints at ("traffic reduction on the
// network provides more flexibility in cache placement"): the *browser*
// cache changes character too.  Caching the prompt form of a page costs
// kilobytes where caching its rendered media costs megabytes — and a
// revisit regenerates everything locally, touching the network not at
// all.  This is an LRU byte-budgeted cache of generative-mode page bodies.
//
// Concurrency: one byte-budgeted LRU under one mutex, so eviction always
// drops the globally coldest entry (cdn::EdgeNode keeps the same shape).
// A client touches its cache only from its fetch thread, so the lock is
// uncontended.  The hit/miss/eviction stats live under the same lock.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/registry.hpp"

namespace sww::core {

class PromptCache {
 public:
  explicit PromptCache(std::size_t capacity_bytes = 512 * 1024);

  /// Per-instance view; the same events are mirrored into the
  /// process-wide obs::Registry under client.prompt_cache.* so Snapshot()
  /// aggregates every cache in the process.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// Look up a cached page body; counts a hit or miss.
  std::optional<std::string> Get(const std::string& path);

  /// Insert/replace a page body.  Entries larger than the capacity are
  /// not cached.
  void Put(const std::string& path, std::string body);

  /// Drop one entry (e.g. after a failed verification) or everything.
  void Invalidate(const std::string& path);
  void Clear();

  std::size_t stored_bytes() const;
  std::size_t entry_count() const;
  std::size_t capacity() const { return capacity_; }
  Stats stats() const;

 private:
  struct Entry {
    std::string path;
    std::string body;
  };

  /// Caller holds mutex_.
  void InvalidateLocked(const std::string& path);
  void EvictToFitLocked();

  const std::size_t capacity_;
  mutable std::mutex mutex_;  // guards everything below but instruments_
  std::size_t stored_bytes_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;

  // Process-wide mirrors of the Stats events.
  struct Instruments {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* insertions;
    obs::Counter* evictions;
    /// Live hit ratio (hits / lookups), refreshed on every Get so a
    /// /metrics scrape mid-run sees the current value, not a final one.
    obs::Gauge* hit_ratio;
  };
  Instruments instruments_;
};

}  // namespace sww::core
