// travel_blog — the paper's §2.1 motivating scenario end to end:
// a travel blog page mixing
//   * generic text delivered as bullet points and expanded on-device,
//   * stock landscape imagery delivered as prompts,
//   * unique photos from the specific hike, fetched as files "same as
//     today".
// The example fetches the page twice — once as a generative client, once
// as a naïve client — and compares wire bytes, generation cost, and who
// pays it.
#include <cstdio>

#include "core/page_builder.hpp"
#include "core/renderer.hpp"
#include "core/session.hpp"
#include "genai/diffusion.hpp"
#include "html/parser.hpp"

int main() {
  using namespace sww;

  // Build the store: the page plus the two unique hike photos (synthesized
  // here from a "camera" — in reality these would be real JPEG files).
  core::ContentStore store;
  const core::TravelBlogPage blog = core::MakeTravelBlogPage(3, 2);
  if (auto status = store.AddPage("/blog", blog.html); !status.ok()) {
    std::fprintf(stderr, "AddPage: %s\n", status.ToString().c_str());
    return 1;
  }
  genai::DiffusionModel camera(genai::FindImageModel(genai::kDalle3).value());
  for (std::size_t i = 0; i < blog.unique_asset_paths.size(); ++i) {
    const auto photo = camera.Generate(
        "hikers resting at a mountain hut, afternoon light", 320, 240,
        30, 9000 + i);
    store.AddAsset(blog.unique_asset_paths[i],
                   photo.value().image.ToPpmBytes(), "image/x-portable-pixmap");
  }
  const core::StorageStats storage = store.Stats();
  std::printf("server storage: %llu B as prompts vs %llu B traditional "
              "(%.1fx) + %llu B unique photos\n\n",
              static_cast<unsigned long long>(storage.prompt_bytes),
              static_cast<unsigned long long>(storage.traditional_bytes),
              storage.CompressionRatio(),
              static_cast<unsigned long long>(storage.unique_asset_bytes));

  struct Run {
    const char* label;
    std::uint32_t ability;
  };
  for (const Run& run : {Run{"generative client", http2::kGenAbilityFull},
                         Run{"naive client", http2::kGenAbilityNone}}) {
    core::LocalSession::Options options;
    options.client.advertised_ability = run.ability;
    auto session = core::LocalSession::Start(&store, options);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n", session.error().ToString().c_str());
      return 1;
    }
    auto fetch = session.value()->FetchPage("/blog");
    if (!fetch.ok()) {
      std::fprintf(stderr, "fetch: %s\n", fetch.error().ToString().c_str());
      return 1;
    }
    std::printf("=== %s ===\n", run.label);
    std::printf("  served mode:        %s\n", fetch.value().mode.c_str());
    std::printf("  wire bytes:         %llu page + %llu assets\n",
                static_cast<unsigned long long>(fetch.value().page_bytes),
                static_cast<unsigned long long>(fetch.value().asset_bytes));
    std::printf("  generated on device: %zu items, %.1f s, %.3f Wh\n",
                fetch.value().generated_items,
                fetch.value().generation_seconds,
                fetch.value().generation_energy_wh);
    std::printf("  server generation:   %.1f s, %.3f Wh\n\n",
                session.value()->server().stats().generation_seconds,
                session.value()->server().stats().generation_energy_wh);
    if (run.ability == http2::kGenAbilityFull) {
      auto doc = html::ParseDocument(fetch.value().final_html);
      core::PageRenderer renderer;
      std::printf("--- rendered blog ---\n%s\n",
                  renderer.RenderToText(*doc.value()).c_str());
    }
  }

  // §2.3: the same page, personalized on-device for a consenting user —
  // identical wire traffic, different pixels, and a disclosure footer.
  {
    core::LocalSession::Options options;
    options.client.generator.profile.interests = {"cycling", "birdwatching"};
    options.client.generator.profile.consented = true;
    auto session = core::LocalSession::Start(&store, options);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n", session.error().ToString().c_str());
      return 1;
    }
    auto fetch = session.value()->FetchPage("/blog");
    if (!fetch.ok()) {
      std::fprintf(stderr, "fetch: %s\n", fetch.error().ToString().c_str());
      return 1;
    }
    std::printf("=== personalized client (2.3) ===\n");
    std::printf("  wire bytes identical to the generative run: %llu page\n",
                static_cast<unsigned long long>(fetch.value().page_bytes));
    std::printf("  personalizations applied: %zu\n",
                session.value()->client().generator().audit().size());
    auto doc = html::ParseDocument(fetch.value().final_html);
    core::PageRenderer renderer;
    const std::string rendered = renderer.RenderWithDisclosure(
        *doc.value(), session.value()->client().generator().audit());
    // Print just the disclosure footer.
    const std::size_t cut = rendered.find("This page was personalized");
    if (cut != std::string::npos) {
      std::printf("%s", rendered.substr(cut).c_str());
    }
  }
  return 0;
}
