// sww_inspect — run one instrumented SWW session and emit run artifacts:
//   run.report.txt     the analyzed run report (golden-diffable)
//   run.report.jsonl   the same report, machine-readable
//   run.frames.jsonl   the flight recorder's frame log
//   run.trace.json     Chrome trace_event JSON (open in Perfetto)
//   run.metrics.jsonl  registry snapshot
//
// Usage: sww_inspect [--out-dir DIR] [--wall-clock] [--print-frames]
//                    [--allow-drops]
//
// Deterministic by default (ManualClock from zero): running twice yields
// byte-identical artifacts.  --wall-clock switches to real time.
//
// Exits 3 when the flight-recorder, journal or finished-span rings
// overwrote records mid-run — dropped telemetry means the artifacts are
// partial, and CI should notice rather than golden-diff a truncated view.
// Pass --allow-drops to downgrade that to a warning.
#include <cstdio>
#include <string>

#include "tools/inspect_run.hpp"

int main(int argc, char** argv) {
  std::string out_dir = ".";
  sww::tools::InspectOptions options;
  bool print_frames = false;
  bool allow_drops = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--wall-clock") {
      options.wall_clock = true;
    } else if (arg == "--print-frames") {
      print_frames = true;
    } else if (arg == "--allow-drops") {
      allow_drops = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: sww_inspect [--out-dir DIR] [--wall-clock] "
          "[--print-frames] [--allow-drops]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  auto result = sww::tools::RunInspect(options);
  if (!result.ok()) {
    std::fprintf(stderr, "inspect run failed: %s\n",
                 result.error().ToString().c_str());
    return 1;
  }
  if (auto status = sww::tools::WriteInspectArtifacts(result.value(), out_dir);
      !status.ok()) {
    std::fprintf(stderr, "writing artifacts failed: %s\n",
                 status.error().ToString().c_str());
    return 1;
  }
  std::fputs(result.value().report_text.c_str(), stdout);
  if (print_frames) std::fputs(result.value().frames_text.c_str(), stdout);
  std::printf("artifacts written to %s\n", out_dir.c_str());
  const std::uint64_t frame_drops = result.value().report.frames_dropped;
  const std::uint64_t journal_drops = result.value().journal_dropped;
  const std::uint64_t span_drops = result.value().spans_dropped;
  if (frame_drops > 0 || journal_drops > 0 || span_drops > 0) {
    std::fprintf(stderr,
                 "telemetry rings overwrote records: %llu frames, %llu "
                 "journal events, %llu spans%s\n",
                 static_cast<unsigned long long>(frame_drops),
                 static_cast<unsigned long long>(journal_drops),
                 static_cast<unsigned long long>(span_drops),
                 allow_drops ? " (--allow-drops: continuing)" : "");
    if (!allow_drops) return 3;
  }
  return 0;
}
