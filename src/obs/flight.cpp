#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>

#include "json/json.hpp"

namespace sww::obs {

const char* TapDirectionName(TapDirection direction) {
  return direction == TapDirection::kSent ? "sent" : "recv";
}

ConnectionTap::ConnectionTap(std::string label, std::size_t capacity)
    : label_(std::move(label)), ring_(std::max<std::size_t>(1, capacity)) {}

void ConnectionTap::Record(FrameRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  record.sequence = ring_.total();
  if (record.direction == TapDirection::kSent) ++total_sent_;
  ring_.Push(std::move(record));
}

void ConnectionTap::Annotate(
    TapDirection direction, std::uint8_t type, std::uint32_t stream_id,
    std::vector<std::pair<std::string, std::string>> details) {
  std::lock_guard<std::mutex> lock(mutex_);
  FrameRecord* record = ring_.FindNewest([&](const FrameRecord& r) {
    return r.direction == direction && r.type == type &&
           r.stream_id == stream_id;
  });
  if (record != nullptr) record->details = std::move(details);
}

std::vector<FrameRecord> ConnectionTap::Records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.Snapshot();
}

std::uint64_t ConnectionTap::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.total();
}

std::uint64_t ConnectionTap::total_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_sent_;
}

std::uint64_t ConnectionTap::total_received() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.total() - total_sent_;
}

std::uint64_t ConnectionTap::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.dropped();
}

void ConnectionTap::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.Clear();
  total_sent_ = 0;
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = new FlightRecorder();  // see Registry
  return *recorder;
}

ConnectionTap& FlightRecorder::GetTap(std::string_view label,
                                      std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& tap : taps_) {
    if (tap->label() == label) return *tap;
  }
  taps_.push_back(std::make_unique<ConnectionTap>(std::string(label), capacity));
  return *taps_.back();
}

std::vector<const ConnectionTap*> FlightRecorder::taps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const ConnectionTap*> out;
  out.reserve(taps_.size());
  for (const auto& tap : taps_) out.push_back(tap.get());
  return out;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& tap : taps_) tap->Clear();
}

namespace {

struct MergedRecord {
  const ConnectionTap* tap;
  FrameRecord record;
};

/// Merge every tap's buffered records into one deterministic order:
/// timestamp, then tap label, then per-tap sequence.
std::vector<MergedRecord> MergeRecords(
    const std::vector<const ConnectionTap*>& taps) {
  std::vector<MergedRecord> merged;
  for (const ConnectionTap* tap : taps) {
    if (tap == nullptr) continue;
    for (FrameRecord& record : tap->Records()) {
      merged.push_back(MergedRecord{tap, std::move(record)});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedRecord& a, const MergedRecord& b) {
                     if (a.record.timestamp_nanos != b.record.timestamp_nanos) {
                       return a.record.timestamp_nanos < b.record.timestamp_nanos;
                     }
                     if (a.tap->label() != b.tap->label()) {
                       return a.tap->label() < b.tap->label();
                     }
                     return a.record.sequence < b.record.sequence;
                   });
  return merged;
}

void AppendSeconds(std::string& out, std::uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f",
                static_cast<double>(nanos) * 1e-9);
  out += buf;
}

}  // namespace

std::string RenderFramesText(const std::vector<const ConnectionTap*>& taps) {
  std::string out;
  for (const MergedRecord& entry : MergeRecords(taps)) {
    const FrameRecord& r = entry.record;
    out += '[';
    AppendSeconds(out, r.timestamp_nanos);
    out += "] ";
    out += entry.tap->label();
    out += r.direction == TapDirection::kSent ? " > " : " < ";
    out += r.type_name;
    out += " len=" + std::to_string(r.length);
    out += " stream=" + std::to_string(r.stream_id);
    char flags[16];
    std::snprintf(flags, sizeof(flags), " flags=0x%x", r.flags);
    out += flags;
    if (!r.details.empty()) {
      out += " {";
      for (std::size_t i = 0; i < r.details.size(); ++i) {
        if (i != 0) out += ", ";
        out += r.details[i].first + ": " + r.details[i].second;
      }
      out += '}';
    }
    out += '\n';
  }
  for (const ConnectionTap* tap : taps) {
    if (tap == nullptr) continue;
    out += "# tap " + tap->label() +
           ": recorded=" + std::to_string(tap->total_recorded()) +
           " sent=" + std::to_string(tap->total_sent()) +
           " received=" + std::to_string(tap->total_received()) +
           " dropped=" + std::to_string(tap->dropped()) + '\n';
  }
  return out;
}

std::string RenderFramesJsonLines(
    const std::vector<const ConnectionTap*>& taps) {
  std::string out;
  for (const MergedRecord& entry : MergeRecords(taps)) {
    const FrameRecord& r = entry.record;
    json::Object line;
    line["kind"] = "frame";
    line["tap"] = entry.tap->label();
    line["direction"] = TapDirectionName(r.direction);
    line["type"] = r.type;
    line["type_name"] = r.type_name;
    line["stream_id"] = r.stream_id;
    line["flags"] = r.flags;
    line["length"] = r.length;
    line["t_seconds"] = static_cast<double>(r.timestamp_nanos) * 1e-9;
    line["seq"] = r.sequence;
    if (!r.details.empty()) {
      json::Object details;
      for (const auto& [key, value] : r.details) details[key] = value;
      line["details"] = std::move(details);
    }
    out += json::Value(line).Dump();
    out += '\n';
  }
  for (const ConnectionTap* tap : taps) {
    if (tap == nullptr) continue;
    json::Object line;
    line["kind"] = "tap_summary";
    line["tap"] = tap->label();
    line["capacity"] = tap->capacity();
    line["recorded"] = tap->total_recorded();
    line["sent"] = tap->total_sent();
    line["received"] = tap->total_received();
    line["dropped"] = tap->dropped();
    out += json::Value(line).Dump();
    out += '\n';
  }
  return out;
}

}  // namespace sww::obs
