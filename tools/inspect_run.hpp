// inspect_run.hpp — the sww_inspect driver: one instrumented end-to-end
// run of the SWW stack, analyzed and rendered as artifacts.
//
// RunInspect drives a client↔server page fetch (twice, so the prompt
// cache gets a hit) and a user→edge→origin CDN leg, with flight-recorder
// wire taps on both connection endpoints and sww-trace context flowing
// across every role boundary.  Under the default ManualClock the run is
// fully deterministic: two invocations produce byte-identical artifacts,
// which is what lets CI diff the report against a checked-in golden.
#pragma once

#include <cstdint>
#include <string>

#include "obs/report.hpp"
#include "util/error.hpp"

namespace sww::tools {

struct InspectOptions {
  /// Use the wall clock instead of a ManualClock starting at zero.
  /// Artifacts are then real-time (and no longer byte-reproducible).
  bool wall_clock = false;
};

/// Everything one run produces, rendered and ready to write.
struct InspectResult {
  obs::RunReport report;
  std::string report_text;    ///< run.report.txt
  std::string report_jsonl;   ///< run.report.jsonl
  std::string frames_jsonl;   ///< run.frames.jsonl (flight recorder)
  std::string frames_text;    ///< tcpdump-style view of the same frames
  std::string trace_json;     ///< run.trace.json (Chrome trace_event)
  std::string metrics_jsonl;  ///< run.metrics.jsonl (registry snapshot)
  /// Telemetry-plane views, fetched live over the session's own HTTP/2
  /// connection mid-run (so the goldens also pin the wire path):
  std::string metrics_prom;     ///< run.metrics.prom (GET /metrics body)
  std::string debug_vars_json;  ///< run.debug_vars.json (GET /debug/vars)
  std::string top_text;         ///< run.top.txt (sww_top --once rendering)
  std::string journal_jsonl;    ///< run.journal.jsonl (GET /debug/journal)
  std::string slo_report;       ///< slo.report.txt (SLO burn-rate report)
  std::uint64_t journal_dropped = 0;  ///< wide events lost to ring overwrite
  std::uint64_t spans_dropped = 0;    ///< finished spans lost to ring overwrite
};

/// Run the instrumented session.  Resets the process-wide tracer,
/// registry, and flight recorder first (the run owns them for its
/// duration) and detaches the manual clock before returning.
util::Result<InspectResult> RunInspect(const InspectOptions& options);

/// Write run.report.txt, run.report.jsonl, run.frames.jsonl,
/// run.trace.json, and run.metrics.jsonl into `out_dir` (must exist).
util::Status WriteInspectArtifacts(const InspectResult& result,
                                   const std::string& out_dir);

}  // namespace sww::tools
