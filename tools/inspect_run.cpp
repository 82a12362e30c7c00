#include "tools/inspect_run.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <string_view>

#include "cdn/catalog.hpp"
#include "cdn/edge.hpp"
#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "genai/model_specs.hpp"
#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "tools/top.hpp"

namespace sww::tools {

using util::Result;
using util::Status;

namespace {

/// The user→edge leg: each request opens a client.fetch span, encodes its
/// context into the sww-trace wire form, and the edge adopts it after a
/// parse round-trip — the exact header path a remote edge would exercise.
void DriveEdgeLeg(cdn::EdgeNode& edge, const cdn::Catalog& catalog) {
  // A deterministic request sequence with repeats, so the edge sees both
  // misses (origin fetches) and hits.
  const std::size_t sequence[] = {0, 1, 2, 0, 1, 0};
  for (std::size_t index : sequence) {
    obs::ScopedSpan fetch("client.fetch", "core");
    fetch.SetProcess("client");
    fetch.AddAttribute("item_id", std::to_string(catalog.item(index).id));
    const std::string header = obs::FormatTraceHeader(fetch.context());
    obs::SpanContext context;
    if (auto parsed = obs::ParseTraceHeader(header)) context = *parsed;
    edge.ServeRequest(catalog.item(index), context);
  }
}

/// mkdir -p: creates each missing component of `path` (0755). Racing
/// creators and pre-existing directories are fine; only a genuine
/// failure (EACCES, ENOTDIR, ...) surfaces as an error.
Status EnsureDirectory(const std::string& path) {
  std::string prefix;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    prefix = path.substr(0, end);
    start = end + 1;
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return util::Error(util::ErrorCode::kIo,
                         "cannot create directory: " + prefix);
    }
  }
  return Status::Ok();
}

}  // namespace

Result<InspectResult> RunInspect(const InspectOptions& options) {
  obs::Tracer& tracer = obs::Tracer::Default();
  obs::ManualClock manual_clock;
  tracer.SetClock(options.wall_clock ? nullptr : &manual_clock);
  tracer.SetEnabled(true);
  tracer.Clear();
  obs::Registry::Default().Reset();
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  recorder.Clear();
  obs::Journal::Default().Clear();

  InspectResult result;
  {
    // --- client ↔ server page fetches, wire-tapped -----------------------
    core::ContentStore store;
    if (Status status = store.AddPage("/", core::MakeGoldfishPage());
        !status.ok()) {
      tracer.SetClock(nullptr);
      return status.error();
    }
    core::LocalSession::Options session_options;
    session_options.client.wire_tap = &recorder.GetTap("client");
    session_options.client.enable_prompt_cache = true;
    session_options.server.wire_tap = &recorder.GetTap("server");
    auto session = core::LocalSession::Start(&store, session_options);
    if (!session.ok()) {
      tracer.SetClock(nullptr);
      return session.error();
    }
    // Twice: the second fetch regenerates from the local prompt cache, so
    // the report shows a nonzero prompt-cache hit ratio.
    for (int i = 0; i < 2; ++i) {
      auto fetch = session.value()->FetchPage("/");
      if (!fetch.ok()) {
        tracer.SetClock(nullptr);
        return fetch.error();
      }
    }

    // --- user → edge → origin CDN leg ------------------------------------
    cdn::CatalogOptions catalog_options;
    catalog_options.item_count = 16;
    catalog_options.seed = 7;
    const cdn::Catalog catalog = cdn::Catalog::MakeSynthetic(catalog_options);
    auto image_model = genai::FindImageModel(genai::kSd3Medium);
    auto text_model = genai::FindTextModel(genai::kDeepseek8b);
    if (!image_model.ok() || !text_model.ok()) {
      tracer.SetClock(nullptr);
      return util::Error(util::ErrorCode::kInternal,
                         "builtin model specs missing");
    }
    cdn::EdgeNode edge(cdn::EdgeMode::kPromptMode, 1 << 20,
                       image_model.value(), text_model.value());
    DriveEdgeLeg(edge, catalog);

    // --- telemetry plane, over the same live connection -------------------
    // Last on purpose: by now every instrument in the run has registered,
    // so the scraped series set is the full, stable set.  (Registry::Reset
    // zeroes but never removes instruments, so scraping before a phase
    // first registers its series would make run N+1's exposition differ
    // from run N's.)
    for (const char* path : {"/metrics", "/debug/vars", "/debug/journal"}) {
      auto raw = session.value()->client().FetchRaw(path, session.value()->Pump());
      if (!raw.ok()) {
        tracer.SetClock(nullptr);
        return raw.error();
      }
      std::string body(raw.value().body.begin(), raw.value().body.end());
      if (std::string_view(path) == "/metrics") {
        result.metrics_prom = std::move(body);
      } else if (std::string_view(path) == "/debug/vars") {
        result.debug_vars_json = std::move(body);
      } else {
        result.journal_jsonl = std::move(body);
      }
    }
    auto top_sample = ParsePrometheusText(result.metrics_prom);
    if (!top_sample.ok()) {
      tracer.SetClock(nullptr);
      return top_sample.error();
    }
    result.top_text = RenderTopTable({top_sample.value()});
  }
  result.journal_dropped = obs::Journal::Default().dropped();
  result.spans_dropped = tracer.dropped();

  // --- analyze + render --------------------------------------------------
  const std::vector<obs::Span> spans = tracer.FinishedSpans();
  const obs::RegistrySnapshot snapshot = obs::Registry::Default().Snapshot();
  const std::vector<const obs::ConnectionTap*> taps = recorder.taps();
  result.report = obs::AnalyzeRun(spans, snapshot, taps);
  result.report_text = obs::RenderReportText(result.report);
  result.report_jsonl = obs::RenderReportJsonLines(result.report);
  result.frames_jsonl = obs::RenderFramesJsonLines(taps);
  result.frames_text = obs::RenderFramesText(taps);
  result.trace_json = obs::ExportChromeTrace(spans, "sww_inspect");
  result.metrics_jsonl = obs::ExportJsonLines(snapshot);

  // --- SLO burn-rate report ----------------------------------------------
  // One cumulative snapshot at run-end: both windows clamp to whole-run
  // burn, which under the ManualClock is byte-reproducible.
  obs::SloEngine engine{obs::DefaultSloObjectives()};
  const std::uint64_t now_nanos = tracer.clock().NowNanos();
  for (const obs::SloObjective& objective : engine.objectives()) {
    if (auto it = snapshot.histograms.find(objective.series);
        it != snapshot.histograms.end()) {
      engine.Ingest(objective.series, it->second, now_nanos);
    }
  }
  result.slo_report = obs::RenderSloReport(engine.Evaluate(now_nanos));

  tracer.SetClock(nullptr);
  return result;
}

Status WriteInspectArtifacts(const InspectResult& result,
                             const std::string& out_dir) {
  const std::string base = out_dir.empty() ? "." : out_dir;
  if (Status status = EnsureDirectory(base); !status.ok()) return status;
  struct Artifact {
    const char* name;
    const std::string* contents;
  };
  const Artifact artifacts[] = {
      {"run.report.txt", &result.report_text},
      {"run.report.jsonl", &result.report_jsonl},
      {"run.frames.jsonl", &result.frames_jsonl},
      {"run.trace.json", &result.trace_json},
      {"run.metrics.jsonl", &result.metrics_jsonl},
      {"run.metrics.prom", &result.metrics_prom},
      {"run.debug_vars.json", &result.debug_vars_json},
      {"run.top.txt", &result.top_text},
      {"run.journal.jsonl", &result.journal_jsonl},
      {"slo.report.txt", &result.slo_report},
  };
  for (const Artifact& artifact : artifacts) {
    if (Status status =
            obs::WriteTextFile(base + "/" + artifact.name, *artifact.contents);
        !status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

}  // namespace sww::tools
