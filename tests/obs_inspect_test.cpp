// obs_inspect_test — determinism and golden coverage for the sww_inspect
// run driver: under the default ManualClock, two runs must produce
// byte-identical artifacts, and the report must match the checked-in
// golden (tests/golden/run.report.txt) — the same file CI diffs against
// the artifact uploaded from the smoke job.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "tools/inspect_run.hpp"

namespace sww::tools {
namespace {

std::string Slurp(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return "";
  std::string contents;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  return contents;
}

TEST(InspectRun, TwoRunsProduceByteIdenticalArtifacts) {
  auto first = RunInspect({});
  ASSERT_TRUE(first.ok()) << first.error().ToString();
  auto second = RunInspect({});
  ASSERT_TRUE(second.ok()) << second.error().ToString();

  EXPECT_EQ(first.value().report_text, second.value().report_text);
  EXPECT_EQ(first.value().report_jsonl, second.value().report_jsonl);
  EXPECT_EQ(first.value().frames_jsonl, second.value().frames_jsonl);
  EXPECT_EQ(first.value().frames_text, second.value().frames_text);
  EXPECT_EQ(first.value().trace_json, second.value().trace_json);
  EXPECT_EQ(first.value().metrics_jsonl, second.value().metrics_jsonl);
  EXPECT_EQ(first.value().journal_jsonl, second.value().journal_jsonl);
  EXPECT_EQ(first.value().slo_report, second.value().slo_report);
}

TEST(InspectRun, ReportCoversTheWholeRun) {
  auto result = RunInspect({});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const obs::RunReport& report = result.value().report;

  // One stitched trace per page fetch / edge request — not one per span.
  EXPECT_GT(report.span_count, report.trace_count);
  EXPECT_GT(report.trace_count, 0u);
  // The run exercises generation, the prompt cache, and the edge cache.
  EXPECT_GT(report.generation_seconds, 0.0);
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GT(report.prompt_cache_hit_ratio, 0.0);
  EXPECT_GT(report.edge_hit_ratio, 0.0);
  // The flight recorder saw the whole exchange, nothing dropped.
  EXPECT_GT(report.frames_tapped, 0u);
  EXPECT_EQ(report.frames_dropped, 0u);
  EXPECT_EQ(report.frames_tapped, report.frames_recorded);
  // The tracer's finished-span ring held every span too.
  EXPECT_EQ(result.value().spans_dropped, 0u);
  EXPECT_TRUE(report.settings_gen_ability_seen);
  EXPECT_GT(report.frame_mix.at("SETTINGS"), 0u);
  EXPECT_GT(report.frame_mix.at("HEADERS"), 0u);
  EXPECT_GT(report.frame_mix.at("DATA"), 0u);
}

TEST(InspectRun, ReportMatchesCheckedInGolden) {
  const std::string golden = Slurp(std::string(SWW_GOLDEN_DIR) + "/run.report.txt");
  ASSERT_FALSE(golden.empty()) << "golden file missing";
  auto result = RunInspect({});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result.value().report_text, golden)
      << "report drifted from tests/golden/run.report.txt; if the change "
         "is intentional, regenerate with: sww_inspect --out-dir tests/golden";
}

TEST(InspectRun, JournalAndSloMatchCheckedInGoldens) {
  const std::string journal_golden =
      Slurp(std::string(SWW_GOLDEN_DIR) + "/run.journal.jsonl");
  const std::string slo_golden =
      Slurp(std::string(SWW_GOLDEN_DIR) + "/slo.report.txt");
  ASSERT_FALSE(journal_golden.empty()) << "golden file missing";
  ASSERT_FALSE(slo_golden.empty()) << "golden file missing";
  auto result = RunInspect({});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result.value().journal_jsonl, journal_golden)
      << "journal drifted from tests/golden/run.journal.jsonl; if the "
         "change is intentional, regenerate with: sww_inspect --out-dir "
         "tests/golden";
  EXPECT_EQ(result.value().slo_report, slo_golden)
      << "SLO report drifted from tests/golden/slo.report.txt; if the "
         "change is intentional, regenerate with: sww_inspect --out-dir "
         "tests/golden";
  // No journal records may have been lost to ring overwrite — dropped
  // wide events would make the golden a partial view.
  EXPECT_EQ(result.value().journal_dropped, 0u);
}

TEST(InspectRun, ArtifactsWriteToDisk) {
  auto result = RunInspect({});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(WriteInspectArtifacts(result.value(), dir).ok());
  for (const char* name : {"run.report.txt", "run.report.jsonl",
                           "run.frames.jsonl", "run.trace.json",
                           "run.metrics.jsonl", "run.journal.jsonl",
                           "slo.report.txt"}) {
    const std::string path = dir + "/" + name;
    EXPECT_FALSE(Slurp(path).empty()) << path;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace sww::tools
