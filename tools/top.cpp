#include "tools/top.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/session.hpp"
#include "json/json.hpp"
#include "obs/expose.hpp"
#include "obs/export.hpp"

namespace sww::tools {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

/// Cumulative histogram state accumulated while scanning exposition lines.
struct HistogramBuild {
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;
  std::vector<obs::HistogramExemplar> exemplars;  ///< parallel to bounds
  obs::HistogramExemplar overflow_exemplar;       ///< from the +Inf line
  std::uint64_t count = 0;
  double sum = 0.0;
  bool have_count = false;
};

/// Rebuild a HistogramSnapshot from cumulative buckets.  The exposition
/// format carries no min/max, so they come from the occupied bucket
/// extents — good to the grid's bucket error, which is all the quantile
/// path promises anyway.
obs::HistogramSnapshot FinalizeHistogram(const HistogramBuild& build) {
  obs::HistogramSnapshot snapshot;
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < build.bounds.size(); ++i) {
    const std::uint64_t n =
        build.cumulative[i] >= previous ? build.cumulative[i] - previous : 0;
    previous = build.cumulative[i];
    snapshot.bounds.push_back(build.bounds[i]);
    snapshot.counts.push_back(n);
  }
  for (std::size_t i = 0; i < build.bounds.size(); ++i) {
    snapshot.exemplars.push_back(
        i < build.exemplars.size() ? build.exemplars[i]
                                   : obs::HistogramExemplar{});
  }
  const std::uint64_t overflow = build.count >= previous
                                     ? build.count - previous
                                     : 0;  // +Inf bucket
  snapshot.counts.push_back(overflow);
  snapshot.exemplars.push_back(build.overflow_exemplar);
  snapshot.count = static_cast<std::size_t>(build.count);
  snapshot.sum = build.sum;
  for (std::size_t i = 0; i < snapshot.bounds.size(); ++i) {
    if (snapshot.counts[i] == 0) continue;
    if (snapshot.min == 0.0) {
      snapshot.min = obs::Histogram::LowerBoundForUpper(snapshot.bounds[i]);
    }
    snapshot.max = snapshot.bounds[i];
  }
  if (overflow > 0) snapshot.max = obs::Histogram::kMaxValue;
  if (snapshot.count > 0) {
    snapshot.mean = snapshot.sum / static_cast<double>(snapshot.count);
    snapshot.p50 = obs::HistogramSnapshotQuantile(snapshot, 50.0);
    snapshot.p95 = obs::HistogramSnapshotQuantile(snapshot, 95.0);
    snapshot.p99 = obs::HistogramSnapshotQuantile(snapshot, 99.0);
  }
  return snapshot;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

}  // namespace

Result<MetricsSample> ParsePrometheusText(std::string_view text) {
  MetricsSample sample;
  std::map<std::string, std::string> types;  // series → counter/gauge/histogram
  std::map<std::string, HistogramBuild> builds;
  std::size_t start = 0;
  std::size_t line_number = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.empty()) continue;
    auto fail = [&](const std::string& what) {
      return Error(ErrorCode::kInvalidArgument,
                   "prometheus line " + std::to_string(line_number) + ": " +
                       what + ": " + std::string(line));
    };
    if (line[0] == '#') {
      // Only "# TYPE <series> <type>" carries structure; other comments
      // are ignored.
      constexpr std::string_view kType = "# TYPE ";
      if (line.substr(0, kType.size()) != kType) continue;
      const std::string_view rest = line.substr(kType.size());
      const std::size_t space = rest.find(' ');
      if (space == std::string_view::npos) return fail("malformed TYPE");
      types[std::string(rest.substr(0, space))] =
          std::string(rest.substr(space + 1));
      continue;
    }
    // Sample line: <name>[{labels}] <value>[ # {trace_id="..."} v ts]
    // The OpenMetrics exemplar suffix, when present, is split off first so
    // the value parse below never grabs the exemplar timestamp.
    std::string_view body = line;
    obs::HistogramExemplar exemplar;
    if (const std::size_t marker = line.find(" # ");
        marker != std::string_view::npos) {
      const std::string_view suffix = line.substr(marker + 3);
      constexpr std::string_view kTraceLabel = "{trace_id=\"";
      if (suffix.substr(0, kTraceLabel.size()) != kTraceLabel) {
        return fail("malformed exemplar");
      }
      const std::size_t id_start = kTraceLabel.size();
      const std::size_t id_end = suffix.find('"', id_start);
      if (id_end == std::string_view::npos ||
          suffix.substr(id_end, 3) != "\"} ") {
        return fail("malformed exemplar");
      }
      const std::string id_text(suffix.substr(id_start, id_end - id_start));
      exemplar.trace_id = std::strtoull(id_text.c_str(), nullptr, 16);
      const std::string tail(suffix.substr(id_end + 3));
      char* after_value = nullptr;
      exemplar.value = std::strtod(tail.c_str(), &after_value);
      if (after_value == nullptr || *after_value != ' ') {
        return fail("exemplar without timestamp");
      }
      exemplar.timestamp_nanos = static_cast<std::uint64_t>(
          std::strtod(after_value + 1, nullptr) * 1e9);
      body = line.substr(0, marker);
    }
    const std::size_t brace = body.find('{');
    const std::size_t space = body.find(' ');
    if (space == std::string_view::npos) return fail("no value");
    const std::string name(body.substr(0, std::min(brace, space)));
    const std::string value_text(body.substr(body.rfind(' ') + 1));
    if (auto it = types.find(name); it != types.end()) {
      if (it->second == "counter") {
        sample.counters[name] =
            std::strtoull(value_text.c_str(), nullptr, 10);
        continue;
      }
      if (it->second == "gauge") {
        sample.gauges[name] = std::strtod(value_text.c_str(), nullptr);
        continue;
      }
    }
    // Histogram member lines: <base>_bucket{le="..."} / <base>_sum /
    // <base>_count, where <base> was declared "# TYPE <base> histogram".
    auto histogram_base = [&](std::string_view suffix) -> std::string {
      if (!EndsWith(name, suffix)) return {};
      const std::string base = name.substr(0, name.size() - suffix.size());
      auto it = types.find(base);
      return it != types.end() && it->second == "histogram" ? base
                                                            : std::string{};
    };
    if (const std::string base = histogram_base("_bucket"); !base.empty()) {
      constexpr std::string_view kLe = "{le=\"";
      const std::size_t le = line.find(kLe);
      if (le == std::string_view::npos) return fail("bucket without le");
      const std::size_t le_start = le + kLe.size();
      const std::size_t le_end = line.find('"', le_start);
      if (le_end == std::string_view::npos) return fail("unterminated le");
      const std::string le_text(line.substr(le_start, le_end - le_start));
      HistogramBuild& build = builds[base];
      const std::uint64_t cumulative =
          std::strtoull(value_text.c_str(), nullptr, 10);
      if (le_text == "+Inf") {
        build.count = cumulative;
        build.have_count = true;
        build.overflow_exemplar = exemplar;
      } else {
        build.bounds.push_back(std::strtod(le_text.c_str(), nullptr));
        build.cumulative.push_back(cumulative);
        build.exemplars.push_back(exemplar);
      }
      continue;
    }
    if (const std::string base = histogram_base("_sum"); !base.empty()) {
      builds[base].sum = std::strtod(value_text.c_str(), nullptr);
      continue;
    }
    if (const std::string base = histogram_base("_count"); !base.empty()) {
      builds[base].count = std::strtoull(value_text.c_str(), nullptr, 10);
      builds[base].have_count = true;
      continue;
    }
    return fail("series without TYPE");
  }
  for (const auto& [base, build] : builds) {
    if (!build.have_count) {
      return Error(ErrorCode::kInvalidArgument,
                   "histogram " + base + " has buckets but no _count");
    }
    sample.histograms[base] = FinalizeHistogram(build);
  }
  return sample;
}

Result<MetricsSample> ParseMetricsJsonl(std::string_view text) {
  MetricsSample sample;
  std::size_t start = 0;
  std::size_t line_number = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.empty()) continue;
    auto parsed = json::Parse(line);
    if (!parsed.ok()) {
      return Error(ErrorCode::kInvalidArgument,
                   "jsonl line " + std::to_string(line_number) + ": " +
                       parsed.error().ToString());
    }
    const json::Value& doc = parsed.value();
    const std::string kind = doc.GetString("kind");
    const std::string series = obs::PrometheusSeriesName(doc.GetString("name"));
    if (kind == "counter") {
      sample.counters[series] =
          static_cast<std::uint64_t>(doc.GetInt("value"));
    } else if (kind == "gauge") {
      sample.gauges[series] = doc.GetNumber("value");
    } else if (kind == "histogram") {
      obs::HistogramSnapshot snapshot;
      snapshot.count = static_cast<std::size_t>(doc.GetInt("count"));
      snapshot.sum = doc.GetNumber("sum");
      snapshot.min = doc.GetNumber("min");
      snapshot.max = doc.GetNumber("max");
      snapshot.mean = doc.GetNumber("mean");
      snapshot.p50 = doc.GetNumber("p50");
      snapshot.p95 = doc.GetNumber("p95");
      snapshot.p99 = doc.GetNumber("p99");
      if (const json::Value* bounds = doc.Get("bounds");
          bounds != nullptr && bounds->is_array()) {
        for (const json::Value& bound : bounds->AsArray()) {
          snapshot.bounds.push_back(bound.AsNumber());
        }
      }
      if (const json::Value* counts = doc.Get("counts");
          counts != nullptr && counts->is_array()) {
        for (const json::Value& count : counts->AsArray()) {
          snapshot.counts.push_back(
              static_cast<std::uint64_t>(count.AsInt()));
        }
      }
      if (snapshot.counts.size() != snapshot.bounds.size() + 1) {
        return Error(ErrorCode::kInvalidArgument,
                     "jsonl line " + std::to_string(line_number) +
                         ": histogram counts/bounds mismatch");
      }
      sample.histograms[series] = std::move(snapshot);
    } else {
      return Error(ErrorCode::kInvalidArgument,
                   "jsonl line " + std::to_string(line_number) +
                       ": unknown kind \"" + kind + "\"");
    }
  }
  return sample;
}

MetricsSample MergeSamples(const std::vector<MetricsSample>& samples) {
  MetricsSample merged;
  merged.source = "merged";
  std::map<std::string, std::vector<obs::HistogramSnapshot>> parts;
  for (const MetricsSample& sample : samples) {
    for (const auto& [name, value] : sample.counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, value] : sample.gauges) {
      merged.gauges[name] += value;
    }
    for (const auto& [name, histogram] : sample.histograms) {
      parts[name].push_back(histogram);
    }
  }
  for (const auto& [name, snapshots] : parts) {
    merged.histograms[name] = obs::MergeHistogramSnapshots(snapshots);
  }
  return merged;
}

util::Result<QuantileSpec> ParseQuantileToken(std::string_view token) {
  if (token.size() < 2 || (token[0] != 'p' && token[0] != 'P')) {
    return Error(ErrorCode::kInvalidArgument,
                 "quantile token must look like p50/p99/p999: " +
                     std::string(token));
  }
  const std::string_view digits = token.substr(1);
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Error(ErrorCode::kInvalidArgument,
                   "quantile token must be digits after 'p': " +
                       std::string(token));
    }
  }
  // Convention: first two digits are the integer part, the rest the
  // fraction — p50 = 50, p999 = 99.9, p9999 = 99.99.
  std::string text(digits.substr(0, 2));
  if (digits.size() > 2) {
    text += '.';
    text += digits.substr(2);
  }
  QuantileSpec spec;
  spec.q = std::strtod(text.c_str(), nullptr);
  if (!(spec.q >= 0.0 && spec.q <= 100.0)) {
    return Error(ErrorCode::kInvalidArgument,
                 "quantile out of range: " + std::string(token));
  }
  spec.label = "P" + std::string(digits);
  return spec;
}

std::vector<QuantileSpec> DefaultQuantiles() {
  return {{50.0, "P50"}, {95.0, "P95"}, {99.0, "P99"}};
}

std::string RenderTopTable(const std::vector<MetricsSample>& samples,
                           const std::vector<QuantileSpec>& quantiles) {
  const MetricsSample merged = MergeSamples(samples);
  // Fleet view: with more than one source every section gains one column
  // per source next to the merged total, so a lopsided member (one host
  // eating the tail, one host dropping journal records) is visible
  // without re-scraping each endpoint alone.  One source gets none.
  constexpr std::size_t kMaxSourceColumns = 8;
  const std::size_t shown =
      samples.size() > 1 ? std::min(samples.size(), kMaxSourceColumns) : 0;
  const char* value_label = shown == 0 ? "VALUE" : "TOTAL";
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "sww_top — %zu source%s · %zu counters · %zu gauges · %zu "
                "histograms\n",
                samples.size(), samples.size() == 1 ? "" : "s",
                merged.counters.size(), merged.gauges.size(),
                merged.histograms.size());
  out += line;
  for (std::size_t i = 0; i < shown; ++i) {
    std::snprintf(line, sizeof(line), "  S%zu = %s\n", i + 1,
                  samples[i].source.c_str());
    out += line;
  }
  if (shown != 0 && samples.size() > shown) {
    std::snprintf(line, sizeof(line),
                  "  ... %zu more sources folded into the totals\n",
                  samples.size() - shown);
    out += line;
  }
  auto source_headers = [&](const char* suffix) {
    for (std::size_t i = 0; i < shown; ++i) {
      char label[16];
      std::snprintf(label, sizeof(label), "S%zu%s", i + 1, suffix);
      std::snprintf(line, sizeof(line), " %10s", label);
      out += line;
    }
  };
  // One cell per shown source for series `name` of the map `member`:
  // `print` formats the source's value into `line`; a source that does
  // not carry the series shows "-".
  auto source_cells = [&](auto member, const std::string& name, auto print) {
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& series = samples[i].*member;
      auto it = series.find(name);
      if (it == series.end()) {
        std::snprintf(line, sizeof(line), " %10s", "-");
      } else {
        print(it->second);
      }
      out += line;
    }
  };
  if (!merged.histograms.empty()) {
    std::snprintf(line, sizeof(line), "\n%-44s %10s", "HISTOGRAM", "COUNT");
    out += line;
    for (const QuantileSpec& spec : quantiles) {
      std::snprintf(line, sizeof(line), " %10s", spec.label.c_str());
      out += line;
    }
    std::snprintf(line, sizeof(line), " %10s", "MAX");
    out += line;
    source_headers(".CNT");
    std::snprintf(line, sizeof(line), " %16s\n", "EXEMPLAR");
    out += line;
    for (const auto& [name, h] : merged.histograms) {
      std::snprintf(line, sizeof(line), "%-44s %10zu", name.c_str(), h.count);
      out += line;
      for (const QuantileSpec& spec : quantiles) {
        std::snprintf(line, sizeof(line), " %10.4g",
                      obs::HistogramSnapshotQuantile(h, spec.q));
        out += line;
      }
      std::snprintf(line, sizeof(line), " %10.4g", h.max);
      out += line;
      source_cells(&MetricsSample::histograms, name,
                   [&](const obs::HistogramSnapshot& snapshot) {
                     std::snprintf(line, sizeof(line), " %10zu",
                                   snapshot.count);
                   });
      // The tail exemplar: the newest traced observation in the highest
      // occupied bucket — the trace id to pull from the journal when the
      // tail looks wrong.
      std::string exemplar_text = "-";
      for (std::size_t i = h.exemplars.size(); i-- > 0;) {
        if (h.exemplars[i].trace_id != 0) {
          char id[17];
          std::snprintf(id, sizeof(id), "%016llx",
                        static_cast<unsigned long long>(
                            h.exemplars[i].trace_id));
          exemplar_text = id;
          break;
        }
      }
      std::snprintf(line, sizeof(line), " %16s\n", exemplar_text.c_str());
      out += line;
    }
  }
  if (!merged.gauges.empty()) {
    std::snprintf(line, sizeof(line), "\n%-44s %10s", "GAUGE", value_label);
    out += line;
    source_headers("");
    out += '\n';
    for (const auto& [name, value] : merged.gauges) {
      std::snprintf(line, sizeof(line), "%-44s %10.6g", name.c_str(), value);
      out += line;
      source_cells(&MetricsSample::gauges, name, [&](double v) {
        std::snprintf(line, sizeof(line), " %10.6g", v);
      });
      out += '\n';
    }
  }
  if (!merged.counters.empty()) {
    std::snprintf(line, sizeof(line), "\n%-44s %10s", "COUNTER", value_label);
    out += line;
    source_headers("");
    out += '\n';
    for (const auto& [name, value] : merged.counters) {
      std::snprintf(line, sizeof(line), "%-44s %10llu", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
      source_cells(&MetricsSample::counters, name, [&](std::uint64_t v) {
        std::snprintf(line, sizeof(line), " %10llu",
                      static_cast<unsigned long long>(v));
      });
      out += '\n';
    }
  }
  // Burn-rate report over the stock objectives, for whichever of their
  // series the merged sample carries.  A single sample gives the engine
  // one cumulative snapshot: both windows clamp to whole-run burn, which
  // is exactly the liveness question "is this run burning error budget".
  obs::SloEngine engine{obs::DefaultSloObjectives()};
  bool any_series = false;
  for (const obs::SloObjective& objective : engine.objectives()) {
    auto it =
        merged.histograms.find(obs::PrometheusSeriesName(objective.series));
    if (it == merged.histograms.end()) continue;
    engine.Ingest(objective.series, it->second, /*now_nanos=*/0);
    any_series = true;
  }
  if (any_series) {
    out += '\n';
    out += obs::RenderSloReport(engine.Evaluate(/*now_nanos=*/0));
  }
  return out;
}

Result<std::string> FetchBodyOnce(std::uint16_t port, const std::string& path) {
  auto session = core::LoopbackSession::Connect(port);
  if (!session.ok()) return session.error();
  auto response = session.value()->FetchRaw(path);
  session.value()->Close();
  if (!response.ok()) return response.error();
  if (response.value().status != 200) {
    return Error(ErrorCode::kInvalidArgument,
                 path + " returned status " +
                     std::to_string(response.value().status));
  }
  const util::Bytes& body = response.value().body;
  return std::string(reinterpret_cast<const char*>(body.data()), body.size());
}

Result<MetricsSample> ScrapeOnce(std::uint16_t port, const std::string& path) {
  auto body = FetchBodyOnce(port, path);
  if (!body.ok()) return body.error();
  auto sample = ParsePrometheusText(body.value());
  if (!sample.ok()) return sample.error();
  sample.value().source = "127.0.0.1:" + std::to_string(port) + path;
  return sample;
}

namespace {

void PrintTopUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--once] [--interval-ms N] [--endpoint PORT]...\n"
               "          [--prom FILE]... [--jsonl FILE]...\n"
               "          [--quantiles p50,p95,p99,p999] [--fetch PORT PATH]\n",
               argv0);
}

/// Split a `--quantiles` value ("p50,p95,p999") into column specs.
util::Result<std::vector<QuantileSpec>> ParseQuantileList(
    std::string_view list) {
  std::vector<QuantileSpec> specs;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    auto spec = ParseQuantileToken(list.substr(start, end - start));
    if (!spec.ok()) return spec.error();
    specs.push_back(std::move(spec.value()));
    if (end == list.size()) break;
    start = end + 1;
  }
  if (specs.empty()) {
    return Error(ErrorCode::kInvalidArgument, "--quantiles list is empty");
  }
  return specs;
}

}  // namespace

int RunTopMain(int argc, char** argv) {
  bool once = false;
  int interval_ms = 1000;
  std::vector<QuantileSpec> quantiles = DefaultQuantiles();
  std::vector<std::uint16_t> endpoints;
  std::vector<std::string> prom_files;
  std::vector<std::string> jsonl_files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--once") {
      once = true;
    } else if (arg == "--interval-ms") {
      const char* value = next("--interval-ms");
      if (value == nullptr) return 2;
      interval_ms = std::atoi(value);
    } else if (arg == "--endpoint") {
      const char* value = next("--endpoint");
      if (value == nullptr) return 2;
      endpoints.push_back(static_cast<std::uint16_t>(std::atoi(value)));
    } else if (arg == "--prom") {
      const char* value = next("--prom");
      if (value == nullptr) return 2;
      prom_files.emplace_back(value);
    } else if (arg == "--jsonl") {
      const char* value = next("--jsonl");
      if (value == nullptr) return 2;
      jsonl_files.emplace_back(value);
    } else if (arg == "--quantiles") {
      const char* value = next("--quantiles");
      if (value == nullptr) return 2;
      auto parsed = ParseQuantileList(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.error().ToString().c_str());
        return 2;
      }
      quantiles = std::move(parsed.value());
    } else if (arg == "--fetch") {
      // One-shot raw GET: print the body and exit.  This is how CI pulls
      // /debug/journal from a live server without another HTTP client.
      const char* port_text = next("--fetch");
      if (port_text == nullptr) return 2;
      const char* path = next("--fetch");
      if (path == nullptr) return 2;
      auto body = FetchBodyOnce(
          static_cast<std::uint16_t>(std::atoi(port_text)), path);
      if (!body.ok()) {
        std::fprintf(stderr, "fetch %s: %s\n", path,
                     body.error().ToString().c_str());
        return 1;
      }
      std::fputs(body.value().c_str(), stdout);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintTopUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintTopUsage(argv[0]);
      return 2;
    }
  }
  if (endpoints.empty() && prom_files.empty() && jsonl_files.empty()) {
    std::fprintf(stderr, "no sources: give --endpoint, --prom, or --jsonl\n");
    PrintTopUsage(argv[0]);
    return 2;
  }

  for (;;) {
    std::vector<MetricsSample> samples;
    for (const std::string& file : prom_files) {
      auto contents = obs::ReadTextFile(file);
      if (!contents.ok()) {
        std::fprintf(stderr, "%s\n", contents.error().ToString().c_str());
        return 1;
      }
      auto sample = ParsePrometheusText(contents.value());
      if (!sample.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     sample.error().ToString().c_str());
        return 1;
      }
      sample.value().source = file;
      samples.push_back(std::move(sample.value()));
    }
    for (const std::string& file : jsonl_files) {
      auto contents = obs::ReadTextFile(file);
      if (!contents.ok()) {
        std::fprintf(stderr, "%s\n", contents.error().ToString().c_str());
        return 1;
      }
      auto sample = ParseMetricsJsonl(contents.value());
      if (!sample.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     sample.error().ToString().c_str());
        return 1;
      }
      sample.value().source = file;
      samples.push_back(std::move(sample.value()));
    }
    for (std::uint16_t port : endpoints) {
      auto sample = ScrapeOnce(port);
      if (!sample.ok()) {
        std::fprintf(stderr, "scrape 127.0.0.1:%u: %s\n", port,
                     sample.error().ToString().c_str());
        return 1;
      }
      samples.push_back(std::move(sample.value()));
    }
    const std::string table = RenderTopTable(samples, quantiles);
    if (once) {
      std::fputs(table.c_str(), stdout);
      return 0;
    }
    // Refresh in place: home the cursor and clear below, like top(1).
    std::fputs("\x1b[H\x1b[J", stdout);
    std::fputs(table.c_str(), stdout);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace sww::tools
