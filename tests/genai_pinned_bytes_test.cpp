// genai_pinned_bytes_test — pins the exact bytes the image generator emits.
//
// The determinism tests compare one run of the renderer against another,
// so a change that moves a byte in every run at once passes them.  These
// FNV-1a hashes were taken from the per-pixel reference renderer; a change
// to the carrier, the texture, the PPM encoder or the image digest that
// alters a single output byte fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

#include "core/media_generator.hpp"
#include "core/page_builder.hpp"
#include "core/verification.hpp"
#include "energy/device.hpp"
#include "genai/diffusion.hpp"
#include "html/parser.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace sww {
namespace {

std::string_view View(const util::Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

struct PinnedSize {
  int width;
  int height;
  std::uint64_t generate_ppm;  ///< Generate("a goldfish in a bowl", seed 99)
  std::uint64_t random_ppm;    ///< RandomImage(seed 99)
};

// Odd and even sizes, single rows and columns, and one larger than the
// Figure 2 thumbnails, so every edge of the cell-index tables is crossed.
constexpr PinnedSize kPinnedSizes[] = {
    {1, 1, 0x7978cc95f8ceef35ULL, 0x54b74c9705a8cb53ULL},
    {7, 5, 0xfc9d1c16a81b1a5fULL, 0x786d638a4839e038ULL},
    {15, 17, 0x52d71930af770bb2ULL, 0x967f10c966137ffcULL},
    {16, 16, 0x6b0d4b7c56c30f1bULL, 0x1df6f68e8f4c1104ULL},
    {17, 13, 0x491fec82645d93c5ULL, 0xf8395e3aec1ac967ULL},
    {333, 1, 0xc01efe65e85a55c8ULL, 0xae70faba620d8df0ULL},
    {1, 333, 0x9d1003d462271e96ULL, 0xb6e508feebe8db67ULL},
    {640, 480, 0x16a9d387cb592cc1ULL, 0x93962e12fff258aaULL},
};

constexpr std::uint64_t kSeed = 99;

TEST(PinnedBytes, Figure2PageAtSeed2025) {
  // The fig2_generative page: 49 digest-carrying 256x192 prompts, built by
  // the client's generator exactly as MaterializePage runs it, on the
  // client's default (shared) pool, serially, and on pools of 2 and 4
  // workers.
  auto doc = html::ParseDocument(core::MakeLandscapeSearchPage().html);
  ASSERT_TRUE(doc.ok());
  const auto extraction = html::ExtractGeneratedContent(*doc.value());
  ASSERT_EQ(extraction.specs.size(), 49u);
  util::ThreadPool two(2);
  util::ThreadPool four(4);
  for (util::ThreadPool* pool : {&util::ThreadPool::Shared(),
                                 static_cast<util::ThreadPool*>(nullptr), &two, &four}) {
    const int workers = pool != nullptr ? pool->worker_count() : 0;
    for (const energy::DeviceProfile* device :
         {&energy::Laptop(), &energy::Workstation()}) {
      core::MediaGenerator::Options options;
      options.pool = pool;
      core::MediaGenerator generator =
          core::MediaGenerator::Create(*device, options).value();
      auto batch = generator.GenerateBatch(extraction.specs);
      ASSERT_TRUE(batch.ok());

      std::uint64_t ppm_hash = util::Fnv1a64("");
      std::uint64_t digest_hash = util::Fnv1a64("");
      for (const core::GeneratedMedia& media : batch.value().items) {
        ppm_hash = util::Fnv1a64(View(media.file_bytes), ppm_hash);
        auto image = genai::Image::FromPpm(View(media.file_bytes));
        ASSERT_TRUE(image.ok()) << media.name;
        digest_hash = util::Fnv1a64(
            core::DigestToHex(core::DigestOfImage(image.value())), digest_hash);
      }
      EXPECT_EQ(ppm_hash, 0xef69dcee7f15d29fULL)
          << workers << " workers, got 0x" << std::hex << ppm_hash;
      EXPECT_EQ(digest_hash, 0x3e79badd8d70900eULL)
          << workers << " workers, got 0x" << std::hex << digest_hash;
    }
  }
}

TEST(PinnedBytes, RandomImageAtOddSizes) {
  for (const PinnedSize& size : kPinnedSizes) {
    const std::uint64_t hash = util::Fnv1a64(
        genai::DiffusionModel::RandomImage(size.width, size.height, kSeed)
            .ToPpm());
    EXPECT_EQ(hash, size.random_ppm)
        << size.width << "x" << size.height << " got 0x" << std::hex << hash;
  }
}

TEST(ParallelDeterminism, GenerateMatchesPinnedBytesAtEveryPoolSize) {
  // Every pinned size rendered on the calling thread, then one size per
  // chunk on pools of 2 and 4 workers sharing one model.
  const genai::DiffusionModel model(
      genai::FindImageModel(genai::kSd3Medium).value());
  constexpr std::size_t kSizes = std::size(kPinnedSizes);
  for (int workers : {0, 2, 4}) {
    std::vector<std::uint64_t> hashes(kSizes, 0);
    auto render = [&](std::int64_t begin, std::int64_t end) {
      for (auto i = static_cast<std::size_t>(begin); i < static_cast<std::size_t>(end);
           ++i) {
        auto generated = model.Generate("a goldfish in a bowl", kPinnedSizes[i].width,
                                        kPinnedSizes[i].height, kSeed);
        if (generated.ok()) hashes[i] = util::Fnv1a64(generated.value().image.ToPpm());
      }
    };
    if (workers > 0) {
      util::ThreadPool pool(workers);
      pool.ParallelFor(static_cast<std::int64_t>(kSizes), render, /*grain=*/1);
    } else {
      render(0, static_cast<std::int64_t>(kSizes));
    }
    for (std::size_t i = 0; i < kSizes; ++i) {
      const PinnedSize& size = kPinnedSizes[i];
      EXPECT_EQ(hashes[i], size.generate_ppm)
          << size.width << "x" << size.height << " at " << workers
          << " workers, got 0x" << std::hex << hashes[i];
    }
  }
}

}  // namespace
}  // namespace sww
