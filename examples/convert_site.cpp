// convert_site — the §4.2 conversion pipeline: take a legacy webpage with
// real images and long prose, invert the images to prompts (the GPT-4V
// step in the paper), bullet the prose, respect CMS unique-tags, and show
// the before/after page and the size accounting.
#include <cstdio>

#include "core/converter.hpp"
#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "genai/diffusion.hpp"
#include "html/parser.hpp"

int main() {
  using namespace sww;

  // A legacy page: two photos (one tagged unique by the CMS) and a long
  // article paragraph.
  const std::string legacy_html =
      "<!DOCTYPE html><html><head><title>Valley guide</title></head><body>"
      "<h1>The valley in spring</h1>"
      R"(<img src="/photos/panorama.jpg" width="256" height="192"/>)"
      R"(<img src="/photos/family.jpg" width="256" height="192" data-sww="unique"/>)"
      "<p>" +
      core::MakeNewsArticleText(1200) + "</p></body></html>";

  // The "existing" image files (synthesized stand-ins for real JPEGs).
  genai::DiffusionModel camera(genai::FindImageModel(genai::kDalle3).value());
  std::map<std::string, genai::Image> payloads;
  payloads["/photos/panorama.jpg"] =
      camera.Generate("a wide valley panorama with a river and forest", 256,
                      192, 30, 42).value().image;
  payloads["/photos/family.jpg"] =
      camera.Generate("family portrait at a picnic table", 256, 192, 30, 43)
          .value().image;

  auto doc = html::ParseDocument(legacy_html).value();
  core::PageConverter converter(
      genai::PromptInverter(genai::PromptInverter::DefaultVocabulary()),
      genai::TextModel(genai::FindTextModel(genai::kDeepseek8b).value()), {});
  auto report = converter.Convert(*doc, payloads);
  if (!report.ok()) {
    std::fprintf(stderr, "convert: %s\n", report.error().ToString().c_str());
    return 1;
  }

  std::printf("conversion report:\n");
  std::printf("  images converted:   %zu\n", report.value().images_converted);
  std::printf("  images kept unique: %zu\n", report.value().images_kept_unique);
  std::printf("  text converted:     %zu (kept %zu)\n",
              report.value().text_blocks_converted,
              report.value().text_blocks_kept);
  std::printf("  bytes: %zu -> %zu (%.1fx)\n\n", report.value().bytes_before,
              report.value().bytes_after, report.value().CompressionRatio());
  for (const std::string& note : report.value().notes) {
    std::printf("  note: %s\n", note.c_str());
  }

  std::printf("\n--- converted page ---\n%s\n\n", doc->Serialize().c_str());

  // Round trip: serve the converted page to a generative client.
  core::ContentStore store;
  if (auto status = store.AddPage("/valley", doc->Serialize()); !status.ok()) {
    std::fprintf(stderr, "AddPage: %s\n", status.ToString().c_str());
    return 1;
  }
  // The unique photo remains a served file.
  store.AddAsset("/photos/family.jpg",
                 payloads["/photos/family.jpg"].ToPpmBytes(),
                 "image/x-portable-pixmap");
  auto session = core::LocalSession::Start(&store, {});
  auto fetch = session.value()->FetchPage("/valley");
  if (!fetch.ok()) {
    std::fprintf(stderr, "fetch: %s\n", fetch.error().ToString().c_str());
    return 1;
  }
  std::printf("served converted page: mode=%s, %zu generated items, "
              "%llu asset bytes fetched (the unique photo)\n",
              fetch.value().mode.c_str(), fetch.value().generated_items,
              static_cast<unsigned long long>(fetch.value().asset_bytes));
  return 0;
}
