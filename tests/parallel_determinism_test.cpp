// parallel_determinism_test — the acceptance test for the parallel
// generation engine's core contract: output bytes are identical no matter
// how many pool workers fan out the assets.  Covered at three layers:
//   * kernel      — DiffusionModel::Generate on pool workers of 1/2/8-thread
//                   pools against the calling thread,
//   * pipeline    — MediaGenerator::GenerateBatch (items, stats, audit),
//   * end-to-end  — a full multi-asset page fetch through LocalSession.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "genai/diffusion.hpp"
#include "html/parser.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sww {
namespace {

// --- kernel ------------------------------------------------------------------

TEST(ParallelDeterminism, CounterHashIsScheduleFree) {
  // The per-pixel texture source: a pure function of (seed, x, y), so the
  // same coordinate hashes identically whether visited first or last.
  EXPECT_EQ(util::CounterHash(42, 3, 5), util::CounterHash(42, 3, 5));
  EXPECT_NE(util::CounterHash(42, 3, 5), util::CounterHash(42, 5, 3));
  EXPECT_NE(util::CounterHash(42, 3, 5), util::CounterHash(43, 3, 5));
  const double v = util::CounterRange(7, 11, 13, -9.0, 9.0);
  EXPECT_GE(v, -9.0);
  EXPECT_LT(v, 9.0);
  EXPECT_DOUBLE_EQ(v, util::CounterRange(7, 11, 13, -9.0, 9.0));
}

TEST(ParallelDeterminism, DiffusionBytesIdenticalAcrossThreadCounts) {
  // One model shared by concurrent renders, as a batch's items share it:
  // whichever thread renders, the bytes match the calling thread's.
  const genai::DiffusionModel model(
      genai::FindImageModel(genai::kSd3Medium).value());
  const auto baseline = model.Generate("a goldfish in a bowl", 96, 64, /*seed=*/99);
  ASSERT_TRUE(baseline.ok());
  const std::string golden = baseline.value().image.ToPpm();

  for (int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    std::vector<std::string> renders(8);
    pool.ParallelFor(
        static_cast<std::int64_t>(renders.size()),
        [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            const auto parallel =
                model.Generate("a goldfish in a bowl", 96, 64, /*seed=*/99);
            if (parallel.ok()) {
              renders[static_cast<std::size_t>(i)] = parallel.value().image.ToPpm();
            }
          }
        },
        /*grain=*/1);
    for (const std::string& render : renders) {
      EXPECT_EQ(render, golden) << "diffusion output diverged at " << threads
                                << " threads";
    }
  }
}

// --- pipeline ----------------------------------------------------------------

std::vector<html::GeneratedContentSpec> MenuSpecs() {
  auto doc = html::ParseDocument(core::MakeFoodMenuPage(/*dish_count=*/6).html);
  EXPECT_TRUE(doc.ok());
  auto extraction = html::ExtractGeneratedContent(*doc.value());
  EXPECT_GT(extraction.specs.size(), 6u);
  return extraction.specs;
}

TEST(ParallelDeterminism, GenerateBatchMatchesSerialItemForItem) {
  const auto specs = MenuSpecs();

  core::MediaGenerator::Options serial_options;
  serial_options.pool = nullptr;
  core::MediaGenerator serial =
      core::MediaGenerator::Create(energy::Laptop(), serial_options).value();
  auto serial_batch = serial.GenerateBatch(specs);
  ASSERT_TRUE(serial_batch.ok());

  for (int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    core::MediaGenerator::Options options;
    options.pool = &pool;
    core::MediaGenerator parallel =
        core::MediaGenerator::Create(energy::Laptop(), options).value();
    auto batch = parallel.GenerateBatch(specs);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().items.size(), serial_batch.value().items.size());
    for (std::size_t i = 0; i < batch.value().items.size(); ++i) {
      const auto& a = serial_batch.value().items[i];
      const auto& b = batch.value().items[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.file_bytes, b.file_bytes) << "item " << i;
      EXPECT_EQ(a.text, b.text) << "item " << i;
      EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    }
    // Modeled seconds do not depend on host threads.
    EXPECT_EQ(batch.value().device_seconds, serial_batch.value().device_seconds);
    EXPECT_EQ(serial.items_generated(), parallel.items_generated());
    EXPECT_DOUBLE_EQ(serial.total_seconds(), parallel.total_seconds());
  }
}

TEST(ParallelDeterminism, BatchFailsWithFirstSpecOrderError) {
  auto specs = MenuSpecs();
  html::GeneratedContentSpec broken;
  broken.type = html::GeneratedContentType::kImage;
  broken.metadata = json::Value{json::Object{}};
  broken.metadata.Set("prompt", "");
  // Page HTML sets the size: a spec the build rejects gets no output
  // buffer, so an absurd size cannot make the batch throw instead.
  broken.metadata.Set("width", 2'000'000'000);
  broken.metadata.Set("height", 2'000'000'000);
  specs.insert(specs.begin() + 1, broken);

  util::ThreadPool pool(4);
  core::MediaGenerator::Options options;
  options.pool = &pool;
  core::MediaGenerator generator =
      core::MediaGenerator::Create(energy::Laptop(), options).value();
  auto batch = generator.GenerateBatch(specs);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.error().code, util::ErrorCode::kInvalidArgument);
  // Serial semantics: only the spec before the failure produced effects.
  EXPECT_EQ(generator.items_generated(), 1u);
}

// --- end-to-end --------------------------------------------------------------

struct PageRun {
  std::string final_html;
  std::map<std::string, util::Bytes> files;
  std::size_t generated_items = 0;
  double generation_seconds = 0.0;
  obs::RegistrySnapshot snapshot;
};

PageRun FetchMenuPage(util::ThreadPool* pool) {
  obs::Registry::Default().Reset();
  // Span ids feed the injected sww-trace header; reset them so every run
  // puts identical header bytes (and thus identical byte counters) on the
  // wire regardless of how many spans earlier runs minted.
  obs::Tracer::Default().Clear();
  core::ContentStore store;
  EXPECT_TRUE(
      store.AddPage("/menu", core::MakeFoodMenuPage(/*dish_count=*/6).html)
          .ok());
  core::LocalSession::Options options;
  options.client.generator.pool = pool;
  auto session = core::LocalSession::Start(&store, options);
  EXPECT_TRUE(session.ok());
  auto fetch = session.value()->FetchPage("/menu");
  EXPECT_TRUE(fetch.ok());
  PageRun run;
  run.final_html = fetch.value().final_html;
  run.files = fetch.value().files;
  run.generated_items = fetch.value().generated_items;
  run.generation_seconds = fetch.value().generation_seconds;
  run.snapshot = obs::Registry::Default().Snapshot();
  obs::Registry::Default().Reset();
  return run;
}

TEST(ParallelDeterminism, FullPageRenderIdenticalAcrossThreadCounts) {
  // The serial golden: no pool at all, every item on the calling thread.
  const PageRun golden = FetchMenuPage(/*pool=*/nullptr);
  ASSERT_GT(golden.generated_items, 6u);

  // 0 stands for the client's default, the process-wide pool.
  for (int threads : {0, 1, 2, 8}) {
    std::unique_ptr<util::ThreadPool> owned;
    if (threads > 0) owned = std::make_unique<util::ThreadPool>(threads);
    const PageRun run = FetchMenuPage(
        owned != nullptr ? owned.get() : core::GenerativeClient::Options{}.generator.pool);
    EXPECT_EQ(run.final_html, golden.final_html)
        << "DOM diverged at " << threads << " threads";
    ASSERT_EQ(run.files.size(), golden.files.size());
    for (const auto& [path, bytes] : golden.files) {
      auto it = run.files.find(path);
      ASSERT_NE(it, run.files.end()) << path;
      EXPECT_EQ(it->second, bytes) << path << " at " << threads << " threads";
    }
    EXPECT_EQ(run.generated_items, golden.generated_items);
    EXPECT_EQ(run.generation_seconds, golden.generation_seconds);
    // Telemetry merges on the calling thread in spec order, so even the
    // registry counters match the serial run exactly.
    EXPECT_EQ(run.snapshot.counters, golden.snapshot.counters)
        << "counters diverged at " << threads << " threads";
  }
}

}  // namespace
}  // namespace sww
