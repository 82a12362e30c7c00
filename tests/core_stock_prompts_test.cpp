// Tests for §7's stock prompt marketplace model (licensing, attribution)
// and the model-requirement fallback negotiation.
#include <gtest/gtest.h>

#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "core/stock_prompts.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"

namespace sww::core {
namespace {

TEST(StockPrompts, BuiltinCatalogShape) {
  const StockPromptLibrary library = StockPromptLibrary::Builtin();
  EXPECT_GE(library.size(), 20u);
  EXPECT_GE(library.Category("landscape").size(), 3u);
  EXPECT_TRUE(library.Category("nonexistent").empty());
}

TEST(StockPrompts, FindAndSearch) {
  const StockPromptLibrary library = StockPromptLibrary::Builtin();
  auto found = library.Find("nature/goldfish");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().license, PromptLicense::kPublicDomain);
  EXPECT_FALSE(library.Find("nature/unicorn").ok());

  const auto hits = library.Search({"mountain", "hut"});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, "travel/mountain-hut");
  EXPECT_TRUE(library.Search({"mountain", "neon"}).empty());
}

TEST(StockPrompts, LicenseGateBlocksUnlicensedCommercialUse) {
  const StockPromptLibrary library = StockPromptLibrary::Builtin();
  const auto commercial = library.Find("food/coffee-pour").value();
  EXPECT_FALSE(library.UsageAllowed(commercial, {}));
  EXPECT_TRUE(library.UsageAllowed(commercial, {"food/coffee-pour"}));
  // Non-commercial licenses need no grant.
  EXPECT_TRUE(library.UsageAllowed(library.Find("landscape/alpine-meadow").value(), {}));

  auto metadata = library.MakeImageMetadata("food/coffee-pour", 256, 256);
  ASSERT_FALSE(metadata.ok());
  EXPECT_EQ(metadata.error().code, util::ErrorCode::kUnsupported);
  EXPECT_TRUE(library
                  .MakeImageMetadata("food/coffee-pour", 256, 256,
                                     {"food/coffee-pour"})
                  .ok());
}

TEST(StockPrompts, MetadataCarriesLicenseAttributionAndDigest) {
  const StockPromptLibrary library = StockPromptLibrary::Builtin();
  auto metadata = library.MakeImageMetadata("landscape/alpine-meadow", 320, 240);
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(metadata.value().GetString("license"), "cc-by-sa");
  EXPECT_EQ(metadata.value().GetString("attribution"),
            "Stock Prompts Collective");
  EXPECT_EQ(metadata.value().GetString("digest").size(), 16u);
  EXPECT_EQ(metadata.value().GetInt("width"), 320);
  EXPECT_EQ(metadata.value().GetString("name"), "landscape-alpine-meadow");
}

TEST(StockPrompts, StockPageServesEndToEnd) {
  const StockPromptLibrary library = StockPromptLibrary::Builtin();
  auto metadata = library.MakeImageMetadata("travel/harbor-town", 128, 96);
  ASSERT_TRUE(metadata.ok());
  auto div = html::MakeGeneratedContentDiv(html::GeneratedContentType::kImage,
                                           metadata.value());
  ContentStore store;
  ASSERT_TRUE(store
                  .AddPage("/stock", "<html><body>" + div->Serialize() +
                                         "</body></html>")
                  .ok());
  auto session = LocalSession::Start(&store, {});
  auto fetch = session.value()->FetchPage("/stock");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().generated_items, 1u);
  EXPECT_EQ(fetch.value().verified_items, 1u);  // digest came along
  // License/attribution survive the round trip in the page the client saw.
  auto doc = html::ParseDocument(util::ToString(fetch.value().response.body));
  auto specs = html::ExtractGeneratedContent(*doc.value());
  ASSERT_EQ(specs.specs.size(), 1u);
  EXPECT_EQ(specs.specs[0].metadata.GetString("license"), "public-domain");
}

// --- §7 model negotiation fallback -----------------------------------------------

std::string DemandingPage(double min_fidelity) {
  json::Value metadata{json::Object{}};
  metadata.Set("prompt", "a gallery-grade alpine panorama, ultra detailed");
  metadata.Set("name", "panorama");
  metadata.Set("width", 64);
  metadata.Set("height", 64);
  metadata.Set("min_fidelity", min_fidelity);
  auto div = html::MakeGeneratedContentDiv(html::GeneratedContentType::kImage,
                                           metadata);
  return "<html><body>" + div->Serialize() + "</body></html>";
}

TEST(ModelNegotiation, WeakClientFallsBackToMaterializedDelivery) {
  ContentStore store;
  // Requires more fidelity than SD 3 Medium's 0.28.
  ASSERT_TRUE(store.AddPage("/demanding", DemandingPage(0.35)).ok());
  auto session = LocalSession::Start(&store, {});
  auto fetch = session.value()->FetchPage("/demanding");
  ASSERT_TRUE(fetch.ok());
  EXPECT_TRUE(fetch.value().model_fallback);
  EXPECT_EQ(fetch.value().mode, "traditional");
  EXPECT_EQ(fetch.value().generated_items, 0u);
  EXPECT_GT(fetch.value().asset_bytes, 0u);  // the materialized image
  // The server generated it (on the workstation).
  EXPECT_GT(session.value()->server().stats().generation_seconds, 0.0);
}

TEST(ModelNegotiation, FallbackMaterializesTheForcedBodyAndCachesNothing) {
  // The client parses the generative body once for the model check; the
  // page it materializes after the fallback must be the forced
  // (traditional) body, and the demanding prompt page must not enter the
  // prompt cache, so a revisit falls back again.
  ContentStore store;
  ASSERT_TRUE(store.AddPage("/demanding", DemandingPage(0.35)).ok());
  LocalSession::Options options;
  options.client.enable_prompt_cache = true;
  auto session = LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok());
  for (std::uint64_t visit = 1; visit <= 2; ++visit) {
    auto fetch = session.value()->FetchPage("/demanding");
    ASSERT_TRUE(fetch.ok());
    EXPECT_TRUE(fetch.value().model_fallback);
    EXPECT_FALSE(fetch.value().from_cache);
    EXPECT_EQ(fetch.value().mode, "traditional");
    EXPECT_EQ(fetch.value().generated_items, 0u);
    EXPECT_EQ(fetch.value().final_html.find(html::kGeneratedContentClass),
              std::string::npos);
    ASSERT_EQ(fetch.value().files.size(), 1u);
    const std::string& asset = fetch.value().files.begin()->first;
    EXPECT_EQ(asset.front(), '/');
    EXPECT_NE(fetch.value().final_html.find(asset), std::string::npos);
    EXPECT_EQ(session.value()->client().prompt_cache().entry_count(), 0u);
    // Per visit: the generative page, the forced page and its one asset.
    EXPECT_EQ(session.value()->server().stats().requests, 3 * visit);
  }
}

TEST(ModelNegotiation, SatisfiableRequirementStaysGenerative) {
  ContentStore store;
  ASSERT_TRUE(store.AddPage("/easy", DemandingPage(0.2)).ok());
  auto session = LocalSession::Start(&store, {});
  auto fetch = session.value()->FetchPage("/easy");
  ASSERT_TRUE(fetch.ok());
  EXPECT_FALSE(fetch.value().model_fallback);
  EXPECT_EQ(fetch.value().mode, "generative");
  EXPECT_EQ(fetch.value().generated_items, 1u);
}

TEST(ModelNegotiation, StrongerClientModelSatisfiesDirectly) {
  ContentStore store;
  ASSERT_TRUE(store.AddPage("/demanding", DemandingPage(0.35)).ok());
  LocalSession::Options options;
  options.client.generator.image_model = "dalle-3";  // fidelity 0.37
  auto session = LocalSession::Start(&store, options);
  auto fetch = session.value()->FetchPage("/demanding");
  ASSERT_TRUE(fetch.ok());
  EXPECT_FALSE(fetch.value().model_fallback);
  EXPECT_EQ(fetch.value().generated_items, 1u);
}

}  // namespace
}  // namespace sww::core
