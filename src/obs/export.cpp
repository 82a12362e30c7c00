#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "json/json.hpp"

namespace sww::obs {

using util::Error;
using util::ErrorCode;
using util::Status;

std::string ExportJsonLines(const RegistrySnapshot& snapshot) {
  // Emission goes through src/json exclusively: names and values are
  // escaped by the serializer (quotes, backslashes, control characters),
  // and non-finite doubles serialize as null rather than bare inf/nan —
  // a metric named from a prompt or path can never corrupt the artifact.
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    json::Object line;
    line["kind"] = "counter";
    line["name"] = name;
    line["value"] = value;
    out += json::Value(line).Dump();
    out += '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    json::Object line;
    line["kind"] = "gauge";
    line["name"] = name;
    line["value"] = value;
    out += json::Value(line).Dump();
    out += '\n';
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    json::Object line;
    line["kind"] = "histogram";
    line["name"] = name;
    line["count"] = histogram.count;
    line["sum"] = histogram.sum;
    line["min"] = histogram.min;
    line["max"] = histogram.max;
    line["mean"] = histogram.mean;
    line["p50"] = histogram.p50;
    line["p95"] = histogram.p95;
    line["p99"] = histogram.p99;
    json::Array bounds, counts;
    for (double bound : histogram.bounds) bounds.push_back(bound);
    for (std::uint64_t count : histogram.counts) counts.push_back(count);
    line["bounds"] = std::move(bounds);
    line["counts"] = std::move(counts);
    out += json::Value(line).Dump();
    out += '\n';
  }
  return out;
}

namespace {

/// Non-finite values would corrupt the JSON output (RFC 8259 has no
/// inf/nan); clamp them to zero so artifacts always re-parse.
double FiniteOrZero(double v) { return std::isfinite(v) ? v : 0.0; }

/// Resolve each span's process track: its own label, else the nearest
/// labeled ancestor's, else the export call's default.  This is what lets
/// one stitched distributed trace render as labeled client/server/edge/
/// origin tracks in Perfetto — only role roots carry explicit labels.
std::vector<std::string> EffectiveProcesses(const std::vector<Span>& spans,
                                            std::string_view default_process) {
  std::map<SpanId, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::string> effective(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span* cursor = &spans[i];
    std::string label;
    for (int depth = 0; depth < 64; ++depth) {  // cycle guard
      if (!cursor->process.empty()) {
        label = cursor->process;
        break;
      }
      const auto parent = index.find(cursor->parent);
      if (cursor->parent == 0 || parent == index.end()) break;
      cursor = &spans[parent->second];
    }
    effective[i] = label.empty() ? std::string(default_process) : label;
  }
  return effective;
}

}  // namespace

std::string ExportChromeTrace(const std::vector<Span>& spans,
                              std::string_view process_name) {
  // Deterministic pid assignment: the default process is pid 1, every
  // other label gets the next pid in sorted order.
  const std::vector<std::string> processes =
      EffectiveProcesses(spans, process_name);
  std::map<std::string, int> pids;
  pids[std::string(process_name)] = 1;
  std::set<std::string> labels(processes.begin(), processes.end());
  int next_pid = 2;
  for (const std::string& label : labels) {
    if (pids.emplace(label, next_pid).second) ++next_pid;
  }

  json::Array events;
  // Process/thread metadata ("ph":"M" name events) so each role renders
  // as a labeled track in Perfetto.  Emitted for every known pid, the
  // default included, whether or not a span landed on it.
  for (const auto& [label, pid] : pids) {
    json::Object meta;
    meta["ph"] = "M";
    meta["pid"] = pid;
    meta["tid"] = 1;
    meta["name"] = "process_name";
    json::Object args;
    args["name"] = label;
    meta["args"] = std::move(args);
    events.push_back(std::move(meta));

    json::Object thread_meta;
    thread_meta["ph"] = "M";
    thread_meta["pid"] = pid;
    thread_meta["tid"] = 1;
    thread_meta["name"] = "thread_name";
    json::Object thread_args;
    thread_args["name"] = label + ".main";
    thread_meta["args"] = std::move(thread_args);
    events.push_back(std::move(thread_meta));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    json::Object event;
    event["ph"] = "X";
    event["pid"] = pids.at(processes[i]);
    event["tid"] = 1;
    event["name"] = span.name;
    if (!span.category.empty()) event["cat"] = span.category;
    // trace_event timestamps are microseconds; keep sub-µs precision.
    event["ts"] = FiniteOrZero(static_cast<double>(span.start_nanos) / 1e3);
    event["dur"] = FiniteOrZero(
        static_cast<double>(span.end_nanos - span.start_nanos) / 1e3);
    json::Object args;
    args["span_id"] = span.id;
    if (span.parent != 0) args["parent_id"] = span.parent;
    if (span.trace_id != 0) {
      char trace_hex[24];
      std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                    static_cast<unsigned long long>(span.trace_id));
      args["trace_id"] = trace_hex;
    }
    for (const auto& [key, value] : span.attributes) {
      args[key] = value;
    }
    event["args"] = std::move(args);
    events.push_back(std::move(event));
  }
  json::Object root;
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = "ms";
  return json::Value(root).Dump();
}

Status WriteTextFile(const std::string& path, std::string_view contents) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Error(ErrorCode::kIo, "cannot open for writing: " + path);
  }
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), file);
  std::fclose(file);
  if (written != contents.size()) {
    return Error(ErrorCode::kIo, "short write: " + path);
  }
  return Status::Ok();
}

util::Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Error(ErrorCode::kIo, "cannot open for reading: " + path);
  }
  std::string contents;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Error(ErrorCode::kIo, "read error: " + path);
  }
  return contents;
}

Status WriteTraceFile(const std::string& path, const std::vector<Span>& spans,
                      std::string_view process_name) {
  return WriteTextFile(path, ExportChromeTrace(spans, process_name));
}

Status WriteMetricsFile(const std::string& path,
                        const RegistrySnapshot& snapshot) {
  return WriteTextFile(path, ExportJsonLines(snapshot));
}

}  // namespace sww::obs
