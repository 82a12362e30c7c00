#include "obs/journal.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "json/json.hpp"
#include "obs/registry.hpp"

namespace sww::obs {

namespace {

std::string TraceIdHex(std::uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, trace_id);
  return buf;
}

/// Registry mirrors of the journal's drop accounting.  Cached once: the
/// registry never destroys instruments, and Record is called per fetch.
Counter& RecordedTotalCounter() {
  static Counter& counter =
      Registry::Default().GetCounter("journal.recorded_total");
  return counter;
}

Counter& DroppedTotalCounter() {
  static Counter& counter =
      Registry::Default().GetCounter("journal.dropped_total");
  return counter;
}

std::size_t DefaultCapacityFromEnv() {
  const char* env = std::getenv("SWW_JOURNAL_CAPACITY");
  if (env == nullptr || *env == '\0') return Journal::kDefaultCapacity;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return Journal::kDefaultCapacity;
  return static_cast<std::size_t>(parsed);
}

}  // namespace

Journal& Journal::Default() {
  static Journal* journal =
      new Journal(DefaultCapacityFromEnv());  // never destroyed: handles
  return *journal;                            // outlive static teardown
}

Journal::Journal(std::size_t capacity) : ring_(capacity) {}

void Journal::Record(JournalRecord record) {
  RecordedTotalCounter().Add();
  // Touch the dropped mirror so the series exists (at 0) from the first
  // record on — dashboards alert on its rate, which needs a baseline.
  DroppedTotalCounter().Add(0);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ring_.Push(std::move(record))) DroppedTotalCounter().Add();
}

std::vector<JournalRecord> Journal::Records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.Snapshot();
}

void Journal::SetCapacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const std::size_t evicted = ring_.SetCapacity(capacity)) {
    DroppedTotalCounter().Add(evicted);  // dropped() grows by the same
  }
}

std::size_t Journal::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.capacity();
}

std::uint64_t Journal::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.total();
}

std::uint64_t Journal::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.dropped();
}

void Journal::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.Clear();
}

std::string RenderJournalJsonLines(const std::vector<JournalRecord>& records,
                                   std::uint64_t total_recorded,
                                   std::uint64_t dropped,
                                   std::size_t capacity) {
  std::string out;
  for (const JournalRecord& record : records) {
    json::Object line;
    line["kind"] = json::Value(record.kind);
    line["trace_id"] = json::Value(TraceIdHex(record.trace_id));
    line["path"] = json::Value(record.path);
    line["timestamp_nanos"] =
        json::Value(static_cast<std::int64_t>(record.timestamp_nanos));
    line["mode"] = json::Value(record.mode);
    line["device"] = json::Value(record.device);
    line["outcome"] = json::Value(record.outcome);
    line["cache"] = json::Value(record.cache);
    line["coalesced"] = json::Value(record.coalesced);
    line["total_seconds"] = json::Value(record.total_seconds);
    line["wire_seconds"] = json::Value(record.wire_seconds);
    line["generation_seconds"] = json::Value(record.generation_seconds);
    line["upscale_seconds"] = json::Value(record.upscale_seconds);
    line["page_bytes"] =
        json::Value(static_cast<std::int64_t>(record.page_bytes));
    line["asset_bytes"] =
        json::Value(static_cast<std::int64_t>(record.asset_bytes));
    line["wire_bytes_sent"] =
        json::Value(static_cast<std::int64_t>(record.wire_bytes_sent));
    line["wire_bytes_received"] =
        json::Value(static_cast<std::int64_t>(record.wire_bytes_received));
    line["frames_sent"] =
        json::Value(static_cast<std::int64_t>(record.frames_sent));
    line["frames_received"] =
        json::Value(static_cast<std::int64_t>(record.frames_received));
    line["energy_joules"] = json::Value(record.energy_joules);
    out += json::Value(std::move(line)).Dump();
    out += '\n';
  }
  json::Object summary;
  summary["kind"] = json::Value("journal_summary");
  summary["records"] = json::Value(static_cast<std::int64_t>(records.size()));
  summary["total_recorded"] =
      json::Value(static_cast<std::int64_t>(total_recorded));
  summary["dropped"] = json::Value(static_cast<std::int64_t>(dropped));
  summary["capacity"] = json::Value(static_cast<std::int64_t>(capacity));
  out += json::Value(std::move(summary)).Dump();
  out += '\n';
  return out;
}

std::string RenderJournalJsonLines(const Journal& journal) {
  return RenderJournalJsonLines(journal.Records(), journal.total_recorded(),
                                journal.dropped(), journal.capacity());
}

}  // namespace sww::obs
