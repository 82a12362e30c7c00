// tools_top_test — the sww_top aggregation pieces that satellite the
// exemplar/SLO plane:
//   * ParseQuantileToken's "first two digits integer, rest fraction"
//     convention (p50, p999 = 99.9, p9999 = 99.99) and its rejections;
//   * ParsePrometheusText round-trips OpenMetrics exemplar suffixes on
//     bucket lines into snapshot exemplars (and rejects malformed ones);
//   * RenderTopTable honors a custom quantile column list, prints the
//     tail exemplar trace id, and appends the SLO section when a stock
//     objective's series is present.
#include <gtest/gtest.h>

#include <string>

#include "obs/expose.hpp"
#include "obs/registry.hpp"
#include "tools/top.hpp"

namespace sww::tools {
namespace {

TEST(ParseQuantileToken, FirstTwoDigitsIntegerRestFraction) {
  auto p50 = ParseQuantileToken("p50");
  ASSERT_TRUE(p50.ok());
  EXPECT_DOUBLE_EQ(p50.value().q, 50.0);
  EXPECT_EQ(p50.value().label, "P50");

  auto p999 = ParseQuantileToken("p999");
  ASSERT_TRUE(p999.ok());
  EXPECT_DOUBLE_EQ(p999.value().q, 99.9);
  EXPECT_EQ(p999.value().label, "P999");

  auto p9999 = ParseQuantileToken("P9999");
  ASSERT_TRUE(p9999.ok());
  EXPECT_DOUBLE_EQ(p9999.value().q, 99.99);

  auto p5 = ParseQuantileToken("p5");
  ASSERT_TRUE(p5.ok());
  EXPECT_DOUBLE_EQ(p5.value().q, 5.0);

  EXPECT_FALSE(ParseQuantileToken("").ok());
  EXPECT_FALSE(ParseQuantileToken("p").ok());
  EXPECT_FALSE(ParseQuantileToken("99").ok());
  EXPECT_FALSE(ParseQuantileToken("p99x").ok());
}

TEST(ParsePrometheusText, ExemplarSuffixRoundTripsIntoSnapshot) {
  // A histogram the registry itself rendered, so the parse is tested
  // against the real producer, not a handwritten imitation.
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("rt.latency");
  hist.Observe(2.0, /*trace_id=*/0xabcdef12345678ull,
               /*timestamp_nanos=*/1'500'000'000ull);
  hist.Observe(0.5);
  const std::string text = obs::RenderPrometheusText(registry.Snapshot());
  ASSERT_NE(text.find("# {trace_id=\"00abcdef12345678\"}"), std::string::npos)
      << text;

  auto sample = ParsePrometheusText(text);
  ASSERT_TRUE(sample.ok()) << sample.error().ToString();
  auto it = sample.value().histograms.find("sww_rt_latency");
  ASSERT_NE(it, sample.value().histograms.end());
  const obs::HistogramSnapshot& snapshot = it->second;
  EXPECT_EQ(snapshot.count, 2u);
  ASSERT_EQ(snapshot.exemplars.size(), snapshot.counts.size());
  bool found = false;
  for (const obs::HistogramExemplar& exemplar : snapshot.exemplars) {
    if (exemplar.trace_id != 0xabcdef12345678ull) continue;
    found = true;
    EXPECT_DOUBLE_EQ(exemplar.value, 2.0);
    EXPECT_EQ(exemplar.timestamp_nanos, 1'500'000'000ull);
  }
  EXPECT_TRUE(found);
}

TEST(ParsePrometheusText, MalformedExemplarIsAnError) {
  const std::string_view header =
      "# TYPE sww_x histogram\n"
      "sww_x_sum 1\n"
      "sww_x_count 1\n";
  EXPECT_FALSE(ParsePrometheusText(
                   std::string(header) +
                   "sww_x_bucket{le=\"+Inf\"} 1 # {span_id=\"0\"} 1 2\n")
                   .ok());
  EXPECT_FALSE(ParsePrometheusText(
                   std::string(header) +
                   "sww_x_bucket{le=\"+Inf\"} 1 # {trace_id=\"0\"} 1\n")
                   .ok());
}

TEST(RenderTopTable, CustomQuantilesExemplarColumnAndSloSection) {
  obs::Registry registry;
  obs::Histogram& fetch = registry.GetHistogram("fetch.latency");
  for (int i = 0; i < 99; ++i) fetch.Observe(1.0);
  fetch.Observe(50.0, /*trace_id=*/0xfeed, /*timestamp_nanos=*/7);

  MetricsSample sample;
  for (const auto& [name, snapshot] : registry.Snapshot().histograms) {
    sample.histograms[obs::PrometheusSeriesName(name)] = snapshot;
  }
  const std::vector<QuantileSpec> quantiles = {{50.0, "P50"}, {99.9, "P999"}};
  const std::string table = RenderTopTable({sample}, quantiles);
  EXPECT_NE(table.find("P999"), std::string::npos);
  EXPECT_EQ(table.find("P95"), std::string::npos);  // not requested
  // The tail exemplar trace id shows on the series row.
  EXPECT_NE(table.find("000000000000feed"), std::string::npos);
  // fetch.latency is a stock objective, so the SLO section renders.
  EXPECT_NE(table.find("SLO REPORT"), std::string::npos);
  EXPECT_NE(table.find("objective fetch-latency-p99"), std::string::npos);

  // Without any stock series there is no SLO section.
  MetricsSample unrelated;
  unrelated.histograms["sww_other"] = sample.histograms.begin()->second;
  EXPECT_EQ(RenderTopTable({unrelated}, quantiles).find("SLO REPORT"),
            std::string::npos);
}

TEST(RenderTopTable, MultiSourceAddsLegendAndPerSourceColumns) {
  MetricsSample a;
  a.source = "127.0.0.1:9100/metrics";
  a.counters["sww_requests_total"] = 30;
  a.gauges["sww_hit_ratio"] = 0.25;
  MetricsSample b;
  b.source = "127.0.0.1:9101/metrics";
  b.counters["sww_requests_total"] = 12;
  b.counters["sww_only_here_total"] = 7;
  b.gauges["sww_hit_ratio"] = 0.75;

  // One source: byte-identical to the render of its merged sample, with
  // no per-source columns — the run.top.txt golden is a one-source table.
  const std::vector<QuantileSpec> quantiles = DefaultQuantiles();
  EXPECT_EQ(RenderTopTable({a}, quantiles),
            RenderTopTable({MergeSamples({a})}, quantiles));
  EXPECT_EQ(RenderTopTable({a}, quantiles).find("S1 ="), std::string::npos);

  const std::string table = RenderTopTable({a, b}, quantiles);
  // Legend maps the S-columns back to the scrape targets.
  EXPECT_NE(table.find("S1 = 127.0.0.1:9100/metrics"), std::string::npos);
  EXPECT_NE(table.find("S2 = 127.0.0.1:9101/metrics"), std::string::npos);
  // Counters: merged total plus one column per source.
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  const std::size_t row = table.find("sww_requests_total");
  ASSERT_NE(row, std::string::npos);
  const std::string line = table.substr(row, table.find('\n', row) - row);
  EXPECT_NE(line.find("42"), std::string::npos);  // merged
  EXPECT_NE(line.find("30"), std::string::npos);  // S1
  EXPECT_NE(line.find("12"), std::string::npos);  // S2
  // A series one source does not carry renders "-" in its column.
  const std::size_t only = table.find("sww_only_here_total");
  ASSERT_NE(only, std::string::npos);
  const std::string only_line =
      table.substr(only, table.find('\n', only) - only);
  EXPECT_NE(only_line.find("-"), std::string::npos);
  // Gauges get per-source columns too.
  const std::size_t gauge = table.find("sww_hit_ratio");
  ASSERT_NE(gauge, std::string::npos);
  const std::string gauge_line =
      table.substr(gauge, table.find('\n', gauge) - gauge);
  EXPECT_NE(gauge_line.find("0.25"), std::string::npos);
  EXPECT_NE(gauge_line.find("0.75"), std::string::npos);
}

}  // namespace
}  // namespace sww::tools
