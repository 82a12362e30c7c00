// Tests for the media generator (§4.1's two-subroutine object).
#include <gtest/gtest.h>

#include <string_view>

#include "core/media_generator.hpp"
#include "core/verification.hpp"
#include "energy/device.hpp"
#include "html/parser.hpp"

namespace sww::core {
namespace {

html::GeneratedContentSpec ImageSpec(int width = 224, int height = 224) {
  html::GeneratedContentSpec spec;
  spec.type = html::GeneratedContentType::kImage;
  spec.metadata = json::Value{json::Object{}};
  spec.metadata.Set("prompt", "a mountain valley, photograph");
  spec.metadata.Set("name", "valley");
  spec.metadata.Set("width", width);
  spec.metadata.Set("height", height);
  return spec;
}

html::GeneratedContentSpec TextSpec(int words = 120) {
  html::GeneratedContentSpec spec;
  spec.type = html::GeneratedContentType::kText;
  spec.metadata = json::Value{json::Object{}};
  json::Array bullets;
  bullets.emplace_back("trail crosses valleys");
  bullets.emplace_back("spring weather mild");
  spec.metadata.Set("prompt", "expand");
  spec.metadata.Set("bullets", json::Value(std::move(bullets)));
  spec.metadata.Set("words", words);
  return spec;
}

MediaGenerator Laptop() {
  auto generator = MediaGenerator::Create(energy::Laptop(), {});
  EXPECT_TRUE(generator.ok());
  return std::move(generator).value();
}

TEST(MediaGenerator, GeneratesImageWithCostAccounting) {
  MediaGenerator generator = Laptop();
  auto spec = ImageSpec(256, 256);
  auto media = generator.Generate(spec);
  ASSERT_TRUE(media.ok());
  EXPECT_EQ(media.value().type, html::GeneratedContentType::kImage);
  EXPECT_EQ(media.value().file_path, "generated/valley.ppm");
  EXPECT_FALSE(media.value().file_bytes.empty());
  // Table 2 small image on a laptop ≈ 7 s.
  EXPECT_NEAR(media.value().seconds, 7.0, 0.5);
  EXPECT_GT(media.value().energy_wh, 0.0);
  EXPECT_EQ(media.value().traditional_bytes, 8192u);
  EXPECT_GT(media.value().metadata_bytes, 0u);
  EXPECT_EQ(generator.items_generated(), 1u);
  EXPECT_NEAR(generator.total_seconds(), media.value().seconds, 1e-9);
}

TEST(MediaGenerator, SharedEmbeddingVerificationMatchesVerifyGeneratedContent) {
  // BuildImage embeds the prompt once for the render and the §7 digests.
  // Its verification must equal the public two-prompt entry point, for a
  // plain item (authored == received) and for a personalized one (the
  // received prompt carries injected interests and its own digest), with
  // the authored digest and with a foreign one.
  const std::string authored =
      "a quiet mountain valley at dawn with pine forest, a winding river "
      "and morning mist, photograph";
  for (const bool personalize : {false, true}) {
    MediaGenerator::Options options;
    if (personalize) {
      options.profile.interests = {"cycling", "birdwatching", "coffee"};
      options.profile.consented = true;
    }
    MediaGenerator generator =
        MediaGenerator::Create(energy::Laptop(), options).value();
    for (const SemanticDigest digest :
         {DigestOfPrompt(authored), DigestOfPrompt("a red sports car in the city")}) {
      auto spec = ImageSpec(64, 48);
      spec.metadata.Set("prompt", authored);
      spec.metadata.Set("digest", DigestToHex(digest));
      auto media = generator.Generate(spec);
      ASSERT_TRUE(media.ok());
      EXPECT_EQ(media.value().prompt != authored, personalize);
      ASSERT_TRUE(media.value().has_verification);
      const util::Bytes& ppm = media.value().file_bytes;
      auto image = genai::Image::FromPpm(
          std::string_view(reinterpret_cast<const char*>(ppm.data()), ppm.size()));
      ASSERT_TRUE(image.ok());
      const ContentVerification expected = VerifyGeneratedContent(
          authored, media.value().prompt, digest, image.value());
      const ContentVerification& got = media.value().verification;
      EXPECT_EQ(got.prompt_integrity, expected.prompt_integrity);
      EXPECT_EQ(got.semantically_faithful, expected.semantically_faithful);
      EXPECT_EQ(got.distance, expected.distance);
      EXPECT_EQ(got.prompt_integrity, digest == DigestOfPrompt(authored));
    }
  }
}

TEST(MediaGenerator, GeneratesTextFromBullets) {
  MediaGenerator generator = Laptop();
  auto spec = TextSpec(120);
  auto media = generator.Generate(spec);
  ASSERT_TRUE(media.ok());
  EXPECT_EQ(media.value().type, html::GeneratedContentType::kText);
  EXPECT_FALSE(media.value().text.empty());
  EXPECT_NEAR(media.value().words, 120, 30);
  EXPECT_EQ(media.value().traditional_bytes, 600u);  // 120 words × 5 B
}

TEST(MediaGenerator, DeterministicAcrossInstances) {
  // The same prompt produces identical bytes on every client — the
  // property that makes prompt-as-content coherent.
  MediaGenerator a = Laptop();
  MediaGenerator b = Laptop();
  auto spec = ImageSpec();
  EXPECT_EQ(a.Generate(spec).value().file_bytes,
            b.Generate(spec).value().file_bytes);
}

TEST(MediaGenerator, GenerateAndReplaceSplicesDom) {
  auto doc = html::ParseDocument(
      R"(<body><div class="generated content" content-type="img" )"
      R"(metadata='{"prompt":"a quiet harbor","name":"h","width":64,)"
      R"("height":64}'></div></body>)").value();
  auto extraction = html::ExtractGeneratedContent(*doc);
  ASSERT_EQ(extraction.specs.size(), 1u);
  MediaGenerator generator = Laptop();
  auto media = generator.GenerateAndReplace(extraction.specs[0]);
  ASSERT_TRUE(media.ok());
  const std::string after = doc->Serialize();
  EXPECT_NE(after.find("generated/h.ppm"), std::string::npos);
  EXPECT_EQ(after.find("generated content"), std::string::npos);
}

TEST(MediaGenerator, TextSpecWithoutBulletsUsesPrompt) {
  MediaGenerator generator = Laptop();
  html::GeneratedContentSpec spec;
  spec.type = html::GeneratedContentType::kText;
  spec.metadata = json::Value{json::Object{}};
  spec.metadata.Set("prompt", "lighthouse coastal storm");
  spec.metadata.Set("words", 60);
  auto media = generator.Generate(spec);
  ASSERT_TRUE(media.ok());
  EXPECT_GT(media.value().words, 30);
}

TEST(MediaGenerator, EmptyPromptRejected) {
  MediaGenerator generator = Laptop();
  html::GeneratedContentSpec spec;
  spec.type = html::GeneratedContentType::kImage;
  spec.metadata = json::Value{json::Object{}};
  spec.metadata.Set("prompt", "");
  EXPECT_FALSE(generator.Generate(spec).ok());
}

TEST(MediaGenerator, UnnamedImageGetsDerivedName) {
  MediaGenerator generator = Laptop();
  html::GeneratedContentSpec spec;
  spec.type = html::GeneratedContentType::kImage;
  spec.metadata = json::Value{json::Object{}};
  spec.metadata.Set("prompt", "x");
  spec.metadata.Set("width", 32);
  spec.metadata.Set("height", 32);
  auto media = generator.Generate(spec);
  ASSERT_TRUE(media.ok());
  EXPECT_NE(media.value().name.find("img-"), std::string::npos);
}

TEST(MediaGenerator, WorkstationFasterThanLaptop) {
  auto workstation = MediaGenerator::Create(energy::Workstation(), {});
  ASSERT_TRUE(workstation.ok());
  MediaGenerator laptop = Laptop();
  auto spec = ImageSpec(512, 512);
  const double laptop_s = laptop.Generate(spec).value().seconds;
  const double ws_s = workstation.value().Generate(spec).value().seconds;
  EXPECT_GT(laptop_s / ws_s, 5.0);  // Table 2: 19 s vs 1.7 s
}

TEST(MediaGenerator, UnknownModelFailsAtCreation) {
  MediaGenerator::Options options;
  options.image_model = "nonexistent";
  EXPECT_FALSE(MediaGenerator::Create(energy::Laptop(), options).ok());
}

TEST(MediaGenerator, PipelineIsReusedAcrossInvocations) {
  MediaGenerator generator = Laptop();
  auto spec = ImageSpec(64, 64);
  (void)generator.Generate(spec);
  (void)generator.Generate(spec);
  (void)generator.Generate(TextSpec());
  EXPECT_EQ(generator.pipeline().invocations(), 3u);
  EXPECT_GT(generator.pipeline().load_seconds(), 0.0);
}

}  // namespace
}  // namespace sww::core
