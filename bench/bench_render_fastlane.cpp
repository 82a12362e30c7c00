// render_fastlane — the three per-image kernels of a generative page's
// client compute, timed one call each at the Figure 2 thumbnail size
// (256x192): DiffusionModel::Generate (carrier, texture, pixels),
// DigestOfImage (the 8x8 region means behind the §7 digest) and
// VerifyGeneratedContent (prompt digests plus the image digest).
//
// The whole Figure 2 page at seed 2025 is also generated as the client
// does it (MediaGenerator::GenerateBatch), and its PPM and image-digest
// hashes are checked against the values genai_pinned_bytes_test pins, so
// a faster render that moves any byte fails here as well as in the tests.
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "core/media_generator.hpp"
#include "core/page_builder.hpp"
#include "core/verification.hpp"
#include "energy/device.hpp"
#include "genai/diffusion.hpp"
#include "html/parser.hpp"
#include "obs/bench.hpp"
#include "util/hash.hpp"

namespace {

using namespace sww;

// FNV-1a over the 49 PPMs, and over the 49 image digests in hex, of the
// Figure 2 page at seed 2025 (the same constants as the pinned-bytes test).
constexpr std::uint64_t kFig2PpmHash = 0xef69dcee7f15d29fULL;
constexpr std::uint64_t kFig2DigestHash = 0x3e79badd8d70900eULL;

void render_fastlane(sww::obs::bench::State& state) {
  std::printf("render fast lane: one 256x192 Figure 2 image\n\n");

  // --- the pinned page ------------------------------------------------------
  const core::LandscapePage page = core::MakeLandscapeSearchPage();
  auto doc = html::ParseDocument(page.html);
  state.Check(doc.ok(), "parse the Figure 2 page");
  if (!doc.ok()) return;
  const auto extraction = html::ExtractGeneratedContent(*doc.value());
  auto generator = core::MediaGenerator::Create(energy::Laptop(), {});
  state.Check(generator.ok(), "create the generator");
  if (!generator.ok()) return;
  auto batch = generator.value().GenerateBatch(extraction.specs);
  state.Check(batch.ok(), "generate the Figure 2 page");
  if (!batch.ok()) return;
  std::uint64_t ppm_hash = util::Fnv1a64("");
  std::uint64_t digest_hash = util::Fnv1a64("");
  std::size_t unverified = 0;
  for (const core::GeneratedMedia& media : batch.value().items) {
    const std::string_view bytes(
        reinterpret_cast<const char*>(media.file_bytes.data()),
        media.file_bytes.size());
    ppm_hash = util::Fnv1a64(bytes, ppm_hash);
    auto image = genai::Image::FromPpm(bytes);
    state.Check(image.ok(), "decode " + media.name);
    if (!image.ok()) return;
    digest_hash = util::Fnv1a64(
        core::DigestToHex(core::DigestOfImage(image.value())), digest_hash);
    if (media.has_verification && !media.verification.verified()) ++unverified;
  }
  std::printf("Figure 2 page: %zu images, %zu unverified\n",
              batch.value().items.size(), unverified);
  // DigestToHex prints any 64-bit value as 16 hex digits.
  std::printf("  ppm hash    %s (pinned %s)\n",
              core::DigestToHex(ppm_hash).c_str(),
              core::DigestToHex(kFig2PpmHash).c_str());
  std::printf("  digest hash %s (pinned %s)\n",
              core::DigestToHex(digest_hash).c_str(),
              core::DigestToHex(kFig2DigestHash).c_str());
  state.Check(ppm_hash == kFig2PpmHash,
              "Figure 2 PPM bytes match the pinned hash");
  state.Check(digest_hash == kFig2DigestHash,
              "Figure 2 image digests match the pinned hash");
  state.ModeledText("fig2_ppm_fnv1a", core::DigestToHex(ppm_hash));
  state.ModeledText("fig2_digest_fnv1a", core::DigestToHex(digest_hash));
  state.Modeled("fig2_images", static_cast<double>(batch.value().items.size()));
  state.Modeled("fig2_unverified_items", static_cast<double>(unverified));

  // --- one image's kernels --------------------------------------------------
  const html::GeneratedContentSpec& spec = extraction.specs.front();
  const std::string prompt = spec.prompt();
  const core::SemanticDigest expected =
      core::DigestFromHex(spec.metadata.GetString("digest"));
  const genai::DiffusionModel& diffusion =
      generator.value().pipeline().diffusion();
  const genai::Image image =
      diffusion.Generate(prompt, spec.width(), spec.height(),
                         util::Fnv1a64(prompt))
          .value()
          .image;
  std::uint64_t sink = 0;
  state.Time("generate_256x192", [&] {
    sink += diffusion.Generate(prompt, spec.width(), spec.height(),
                               util::Fnv1a64(prompt))
                .value()
                .image.data()[0];
  });
  state.Time("digest_of_image_256x192",
             [&] { sink += core::DigestOfImage(image); });
  state.Time("verify_generated_content_256x192", [&] {
    sink += static_cast<std::uint64_t>(
        core::VerifyGeneratedContent(prompt, prompt, expected, image).distance);
  });
  for (const char* label : {"generate_256x192", "digest_of_image_256x192",
                            "verify_generated_content_256x192"}) {
    std::printf("  %-34s %10.1f us median\n", label,
                state.result().wall.at(label).median_ns / 1000.0);
  }
  state.Check(sink > 0, "render kernels produced output");
}
SWW_BENCHMARK(render_fastlane);

}  // namespace
