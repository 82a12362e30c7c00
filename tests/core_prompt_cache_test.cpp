// Tests for the client-side prompt cache: revisits regenerate on-device
// with zero network traffic.
#include <gtest/gtest.h>

#include "core/page_builder.hpp"
#include "core/prompt_cache.hpp"
#include "core/session.hpp"

namespace sww::core {
namespace {

// --- unit: the cache itself ---------------------------------------------------

TEST(PromptCache, HitAfterPut) {
  PromptCache cache(1024);
  EXPECT_FALSE(cache.Get("/a").has_value());
  cache.Put("/a", "body-a");
  auto hit = cache.Get("/a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "body-a");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PromptCache, PutReplacesExisting) {
  PromptCache cache(1024);
  cache.Put("/a", "v1");
  cache.Put("/a", "version-two");
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(*cache.Get("/a"), "version-two");
  EXPECT_EQ(cache.stored_bytes(), 11u);
}

TEST(PromptCache, LruEvictionUnderPressure) {
  // One global LRU: eviction picks the coldest entry of the whole cache.
  PromptCache cache(20);
  cache.Put("/a", "0123456789");  // 10 B
  cache.Put("/b", "0123456789");  // 10 B — full
  (void)cache.Get("/a");          // /a now most recent
  cache.Put("/c", "0123456789");  // evicts /b
  EXPECT_TRUE(cache.Get("/a").has_value());
  EXPECT_FALSE(cache.Get("/b").has_value());
  EXPECT_TRUE(cache.Get("/c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stored_bytes(), 20u);
}

TEST(PromptCache, DefaultCacheHoldsABodyOfAFifthOfItsBudget) {
  // The whole byte budget is one LRU: a 100 kB page body fits the default
  // 512 kB cache and stays next to the smaller ones.
  PromptCache cache;
  cache.Put("/small", "prompt");
  cache.Put("/big", std::string(100 * 1000, 'p'));
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.stored_bytes(), 100 * 1000 + 6u);
  ASSERT_TRUE(cache.Get("/big").has_value());
  EXPECT_EQ(cache.Get("/big")->size(), 100u * 1000);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(PromptCache, OversizedEntryNotCached) {
  PromptCache cache(8);
  cache.Put("/big", "way too large for this cache");
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(PromptCache, InvalidateAndClear) {
  PromptCache cache(1024);
  cache.Put("/a", "x");
  cache.Put("/b", "y");
  cache.Invalidate("/a");
  EXPECT_FALSE(cache.Get("/a").has_value());
  EXPECT_TRUE(cache.Get("/b").has_value());
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stored_bytes(), 0u);
}

// --- integration: cached revisits ------------------------------------------------

TEST(PromptCacheE2E, RevisitTouchesNoNetwork) {
  ContentStore store;
  ASSERT_TRUE(store.AddPage("/", MakeGoldfishPage()).ok());
  LocalSession::Options options;
  options.client.enable_prompt_cache = true;
  auto session = LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok());

  auto first = session.value()->FetchPage("/");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().from_cache);
  EXPECT_GT(first.value().page_bytes, 0u);
  EXPECT_EQ(session.value()->server().stats().requests, 1u);

  auto second = session.value()->FetchPage("/");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().page_bytes, 0u);
  // The server never saw the revisit.
  EXPECT_EQ(session.value()->server().stats().requests, 1u);
  // Same content regenerated.
  EXPECT_EQ(first.value().files, second.value().files);
  EXPECT_EQ(first.value().final_html, second.value().final_html);
  // And the generation cost was paid again (it is compute, not storage).
  EXPECT_NEAR(second.value().generation_seconds,
              first.value().generation_seconds, 1e-9);
}

TEST(PromptCacheE2E, TraditionalPagesAreNotCached) {
  ContentStore store;
  ASSERT_TRUE(store.AddPage("/", MakeGoldfishPage()).ok());
  LocalSession::Options options;
  options.client.enable_prompt_cache = true;
  options.client.advertised_ability = http2::kGenAbilityNone;
  auto session = LocalSession::Start(&store, options);
  ASSERT_TRUE(session.ok());
  auto first = session.value()->FetchPage("/");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().mode, "traditional");
  auto second = session.value()->FetchPage("/");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().from_cache);
  EXPECT_EQ(session.value()->server().stats().requests, 4u);  // 2× page+asset
}

TEST(PromptCacheE2E, CacheDisabledByDefault) {
  ContentStore store;
  ASSERT_TRUE(store.AddPage("/", MakeGoldfishPage()).ok());
  auto session = LocalSession::Start(&store, {});
  (void)session.value()->FetchPage("/");
  auto second = session.value()->FetchPage("/");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().from_cache);
  EXPECT_EQ(session.value()->server().stats().requests, 2u);
}

TEST(PromptCacheE2E, CacheFootprintIsTiny) {
  // The whole point: the 49-image Figure 2 page caches in ~18 kB of
  // prompts where an image cache would hold ~1.4 MB.
  ContentStore store;
  const LandscapePage page = MakeLandscapeSearchPage(49);
  ASSERT_TRUE(store.AddPage("/landscape", page.html).ok());
  LocalSession::Options options;
  options.client.enable_prompt_cache = true;
  options.client.generator.inference_steps = 3;  // keep the test fast
  auto session = LocalSession::Start(&store, options);
  auto first = session.value()->FetchPage("/landscape");
  ASSERT_TRUE(first.ok());
  const PromptCache& cache = session.value()->client().prompt_cache();
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_LT(cache.stored_bytes(), 25000u);
  EXPECT_GT(page.traditional_image_bytes / cache.stored_bytes(), 50u);
  auto second = session.value()->FetchPage("/landscape");
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().generated_items, 49u);
}

}  // namespace
}  // namespace sww::core
