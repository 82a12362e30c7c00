// top.hpp — the sww_top aggregator: scrape /metrics endpoints (or read
// JSONL / Prometheus snapshot files), merge the samples on the shared
// log-linear histogram grid, and render one refreshing quantile/ratio
// table.
//
// Parsing and merging are pure functions over strings, so the whole
// aggregation path is unit-testable without sockets; ScrapeOnce is the
// only networked piece (a raw HTTP/2 GET over loopback TCP using the
// repo's own client stack).  `sww_top --once` renders a single table and
// exits — deterministic input files produce a byte-stable table, which is
// what lets CI golden-check the tool.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "util/error.hpp"

namespace sww::tools {

/// One source's parsed metric state.  Keys are Prometheus series names
/// (obs::PrometheusSeriesName output) regardless of the source format, so
/// samples from /metrics scrapes and run.metrics.jsonl files merge under
/// the same keys.
struct MetricsSample {
  std::string source;  ///< endpoint or file label, for the table header
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, obs::HistogramSnapshot> histograms;
};

/// Parse a Prometheus text exposition (the RenderPrometheusText output).
/// Histograms are rebuilt from their cumulative `_bucket{le="..."}` lines;
/// min/max are not carried by the format, so they are reconstructed from
/// the occupied bucket extents (quantiles stay within the grid's bucket
/// error).  OpenMetrics exemplar suffixes (` # {trace_id="..."} v ts`) on
/// bucket lines are parsed into the snapshot's exemplars.  Unknown or
/// malformed lines are an error — a scrape that does not round-trip
/// should fail loudly.
util::Result<MetricsSample> ParsePrometheusText(std::string_view text);

/// One quantile column of the top table: the value (0..100) plus its
/// header label ("P99", "P999").
struct QuantileSpec {
  double q = 0.0;
  std::string label;
};

/// Parse one `--quantiles` token ("p50", "p99", "p999" = 99.9, "p9999" =
/// 99.99): the first two digits are the integer part, the rest fraction.
util::Result<QuantileSpec> ParseQuantileToken(std::string_view token);

/// The default table columns: p50, p95, p99.
std::vector<QuantileSpec> DefaultQuantiles();

/// Parse a JSON-lines registry snapshot (the ExportJsonLines output, one
/// instrument object per line).  Instrument names are normalized through
/// obs::PrometheusSeriesName.
util::Result<MetricsSample> ParseMetricsJsonl(std::string_view text);

/// Merge samples from many sources: counters and gauges add, histograms
/// merge exactly on the shared grid (obs::MergeHistogramSnapshots).
MetricsSample MergeSamples(const std::vector<MetricsSample>& samples);

/// Render the table over the merged samples: a histogram section (count,
/// one column per requested quantile, max, and the newest tail exemplar
/// trace id when one is present), a ratio/gauge section, a counter
/// section, and — when any stock SLO objective's series is present — the
/// SLO burn-rate report.  Each section is sorted by series name;
/// deterministic for deterministic input.
///
/// With more than one sample the header grows a source legend
/// (S1 = <source>, ...) and every section gains one value column per
/// source next to the merged total: per-source counts for histograms,
/// per-source values for gauges and counters ("-" where a source does
/// not carry the series).  At most eight sources get columns; the rest
/// still fold into the merged totals.
std::string RenderTopTable(
    const std::vector<MetricsSample>& samples,
    const std::vector<QuantileSpec>& quantiles = DefaultQuantiles());

/// GET `path` from a live server on 127.0.0.1:`port` over the repo's own
/// HTTP/2 stack and parse the body as a Prometheus exposition.
util::Result<MetricsSample> ScrapeOnce(std::uint16_t port,
                                       const std::string& path = "/metrics");

/// GET `path` from a live server on 127.0.0.1:`port` and return the raw
/// body (the `--fetch` mode CI uses to pull /debug/journal).
util::Result<std::string> FetchBodyOnce(std::uint16_t port,
                                        const std::string& path);

/// The sww_top entry point:
///   sww_top [--once] [--interval-ms N] [--quantiles p50,p95,p99,p999]
///           [--endpoint PORT]... [--prom FILE]... [--jsonl FILE]...
///           [--fetch PORT PATH]
/// Returns the process exit code.
int RunTopMain(int argc, char** argv);

}  // namespace sww::tools
