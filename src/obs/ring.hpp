// ring.hpp — the one bounded store behind the telemetry.  The flight
// recorder's taps, the journal and the tracer's finished spans each keep
// the newest entries of an unbounded stream in a Ring<T>.  A push into a
// full ring evicts the oldest entry; total() counts every push and
// dropped() every entry no longer held, so total() == size() + dropped().
// Not synchronised: the owner holds its lock around every call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace sww::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  /// Returns false when the push cost an entry: the oldest was
  /// overwritten, or the capacity is 0 and `value` itself was dropped.
  bool Push(T value) {
    ++total_;
    if (capacity_ == 0) return false;
    const bool full = entries_.size() == capacity_;
    if (full) entries_.pop_front();
    entries_.push_back(std::move(value));
    return !full;
  }

  /// Held entries, oldest first.
  std::vector<T> Snapshot() const { return {entries_.begin(), entries_.end()}; }

  /// The newest held entry matching `pred`, or nullptr.
  template <typename Pred>
  T* FindNewest(Pred pred) {
    const auto it = std::find_if(entries_.rbegin(), entries_.rend(), pred);
    return it != entries_.rend() ? &*it : nullptr;
  }
  template <typename Pred>
  const T* FindNewest(Pred pred) const {
    const auto it = std::find_if(entries_.rbegin(), entries_.rend(), pred);
    return it != entries_.rend() ? &*it : nullptr;
  }

  /// Shrinking keeps the newest entries; the evicted ones count as
  /// dropped.  Returns how many were evicted.
  std::size_t SetCapacity(std::size_t capacity) {
    const std::size_t evicted =
        entries_.size() > capacity ? entries_.size() - capacity : 0;
    entries_.erase(entries_.begin(), entries_.begin() + evicted);
    capacity_ = capacity;
    return evicted;
  }

  /// Empties the ring and zeroes both counts; the capacity stays.
  void Clear() {
    entries_.clear();
    total_ = 0;
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const { return total_ - entries_.size(); }

 private:
  std::size_t capacity_;
  std::deque<T> entries_;  // oldest first, at most capacity_
  std::uint64_t total_ = 0;
};

}  // namespace sww::obs
