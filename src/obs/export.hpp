// export.hpp — serialize telemetry for humans and tools.
//
// Two formats:
//   * JSON-lines metrics snapshot — one instrument per line, greppable
//     and trivially diffable between runs.
//   * Chrome trace_event JSON — open in chrome://tracing or
//     https://ui.perfetto.dev to see the span tree on a timeline.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace sww::obs {

/// One JSON object per line:
///   {"kind":"counter","name":...,"value":...}
///   {"kind":"gauge","name":...,"value":...}
///   {"kind":"histogram","name":...,"count":...,"mean":...,"p50":...,...}
/// Names and values are JSON-escaped; non-finite numbers emit as null —
/// the output always re-parses with json::Parse.
std::string ExportJsonLines(const RegistrySnapshot& snapshot);

/// Chrome trace_event format: {"traceEvents":[...]} with one complete
/// ("ph":"X") event per finished span; span/parent/trace ids and
/// attributes ride in "args".  Timestamps are microseconds from the span
/// clock.  Spans are grouped into per-role process tracks ("ph":"M"
/// process_name/thread_name metadata events): a span's track is its own
/// process label, else its nearest labeled ancestor's, else
/// `process_name` — so a stitched client→server→edge trace renders as
/// labeled tracks in Perfetto.
std::string ExportChromeTrace(const std::vector<Span>& spans,
                              std::string_view process_name = "sww");

/// Write `contents` to `path` whole (shared by every artifact writer).
util::Status WriteTextFile(const std::string& path, std::string_view contents);

/// Read `path` whole; kIo when it cannot be opened or read.  The bench
/// trajectory writer uses this to fold new runs onto the existing file.
util::Result<std::string> ReadTextFile(const std::string& path);

/// Convenience: export the default tracer + registry to files.  The trace
/// file is Chrome trace JSON, the metrics file is JSON-lines.
util::Status WriteTraceFile(const std::string& path,
                            const std::vector<Span>& spans,
                            std::string_view process_name = "sww");
util::Status WriteMetricsFile(const std::string& path,
                              const RegistrySnapshot& snapshot);

}  // namespace sww::obs
