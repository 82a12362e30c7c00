// load_run.hpp — the sww_load driver: run fleet workload scenarios and
// emit their observability artifacts.
//
//   sww_load [--scenario NAME]... [--spec FILE.json] [--out-dir DIR]
//            [--threads N] [--list] [--print-spec NAME]
//   sww_load --live-port P [--hold N] [--burst M] [--out-dir DIR]
//
// Scenarios come from the builtin set (load::BuiltinScenarios) by name
// and/or from a JSON spec file (one object or an array; the grammar is
// documented in docs/performance.md).  With no selection the "smoke"
// scenario runs.  Artifacts land in --out-dir:
//
//   load.report.txt     — per-scenario report (the CI golden)
//   load.metrics.prom   — Prometheus exposition of the run's registry
//   load.journal.jsonl  — the wide-event journal (ring-bounded)
//
// The run is deterministic: a fixed spec produces byte-identical
// artifacts across repeated runs and --threads values.
#pragma once

#include <string>
#include <vector>

#include "load/engine.hpp"
#include "util/error.hpp"

namespace sww::tools {

struct LoadOptions {
  /// The most pool threads --threads accepts.
  static constexpr int kMaxThreads = 64;

  std::vector<std::string> scenario_names;  ///< builtin names to run
  std::string spec_file;                    ///< JSON spec file (optional)
  std::string out_dir;                      ///< empty: no artifacts
  int threads = 0;                          ///< 0: shared pool; <= kMaxThreads
  // Live mode (--live-port): instead of the virtual-clock engine, dial a
  // running reactor server over real sockets — hold `hold` idle TCP
  // connections, then push `burst` page fetches through one persistent
  // HTTP/2 session.  Produces live.report.txt (counts only, so the
  // artifact is deterministic and CI can diff it against a golden).
  int live_port = 0;                        ///< 0: modeled engine mode
  int hold = 0;                             ///< idle connections to hold
  int burst = 0;                            ///< page fetches to push
};

struct LiveLoadResult {
  int held = 0;             ///< connections successfully dialed and held
  int burst_ok = 0;         ///< successful page fetches
  std::string serve_mode;   ///< x-sww-mode of the first fetch
  std::string report;       ///< live.report.txt contents
};

/// Live mode: exercise a running reactor server through real sockets.
util::Result<LiveLoadResult> RunLiveLoad(const LoadOptions& options);

struct LoadResult {
  std::vector<load::ScenarioResult> scenarios;
  std::string report;          ///< load.report.txt contents
  std::string metrics_prom;    ///< load.metrics.prom contents
  std::string journal_jsonl;   ///< load.journal.jsonl contents
};

/// Run the selected scenarios (resetting the process registry, journal
/// and tracer first, like RunInspect) and render the artifacts.
util::Result<LoadResult> RunLoad(const LoadOptions& options);

/// CLI entry point; returns the process exit code.
int RunLoadMain(int argc, char** argv);

}  // namespace sww::tools
