// Tests for the image-side GenAI substrate: Image, embeddings, diffusion,
// upscaling, prompt inversion.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "genai/diffusion.hpp"
#include "genai/embedding.hpp"
#include "genai/image.hpp"
#include "genai/pipeline.hpp"
#include "genai/prompt_inversion.hpp"
#include "genai/upscaler.hpp"
#include "core/page_builder.hpp"
#include "metrics/clip.hpp"

namespace sww::genai {
namespace {

DiffusionModel Sd3() { return DiffusionModel(FindImageModel(kSd3Medium).value()); }

// --- Image -------------------------------------------------------------------

TEST(Image, PixelAccess) {
  Image image(4, 3);
  image.Set(2, 1, Pixel{10, 20, 30});
  const Pixel p = image.Get(2, 1);
  EXPECT_EQ(p.r, 10);
  EXPECT_EQ(p.g, 20);
  EXPECT_EQ(p.b, 30);
  EXPECT_EQ(image.pixel_count(), 12);
}

TEST(Image, LuminanceWeighting) {
  Image image(1, 1);
  image.Set(0, 0, Pixel{255, 255, 255});
  EXPECT_EQ(image.Luminance(0, 0), 255);
  image.Set(0, 0, Pixel{0, 255, 0});
  EXPECT_NEAR(image.Luminance(0, 0), 150, 2);  // green dominates
}

TEST(Image, MeanLuminanceClipsToBounds) {
  Image image(2, 2);
  image.Set(0, 0, Pixel{100, 100, 100});
  image.Set(1, 0, Pixel{200, 200, 200});
  image.Set(0, 1, Pixel{100, 100, 100});
  image.Set(1, 1, Pixel{200, 200, 200});
  EXPECT_NEAR(image.MeanLuminance(-5, -5, 10, 10), 150.0, 1.0);
  EXPECT_EQ(image.MeanLuminance(3, 3, 5, 5), 0.0);
}

TEST(Image, PpmRoundTrip) {
  Image image(5, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) {
      image.Set(x, y, Pixel{static_cast<std::uint8_t>(x * 50),
                            static_cast<std::uint8_t>(y * 60), 7});
    }
  }
  auto parsed = Image::FromPpm(image.ToPpm());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().width(), 5);
  EXPECT_EQ(parsed.value().height(), 4);
  EXPECT_EQ(parsed.value().data(), image.data());
  const std::string ppm = image.ToPpm();
  EXPECT_EQ(image.ToPpmBytes(), util::Bytes(ppm.begin(), ppm.end()));
}

TEST(Image, PpmRejectsGarbage) {
  EXPECT_FALSE(Image::FromPpm("P5\n1 1\n255\nx").ok());
  EXPECT_FALSE(Image::FromPpm("P6\n2 2\n255\nxy").ok());  // truncated
  EXPECT_FALSE(Image::FromPpm("P6\n2 2\n65535\n").ok());
  // Ends right after the maxval, with no separator byte.  Held in an
  // exact-size heap buffer so reading past its end is an ASAN error.
  const std::string header_only = "P6\n1 1\n255";
  const std::vector<char> exact(header_only.begin(), header_only.end());
  EXPECT_FALSE(Image::FromPpm(std::string_view(exact.data(), exact.size())).ok());
  // Digit runs that would overflow int (a UBSAN error) or allocate
  // absurdly large images.
  EXPECT_FALSE(Image::FromPpm("P6\n99999999999999999999 1\n255\nxyz").ok());
  EXPECT_FALSE(Image::FromPpm("P6\n1 4294967297\n255\nxyz").ok());
  EXPECT_FALSE(Image::FromPpm("P6\n32769 1\n255\n").ok());
  // In range but larger than the data: truncated, not allocated.
  EXPECT_FALSE(Image::FromPpm("P6\n32768 32768\n255\nxyz").ok());
}

TEST(Image, TypicalCompressedBytesMatchesPaperSizes) {
  // Table 2's media sizes: 256²→8,192 B; 512²→32,768 B; 1024²→131,072 B.
  EXPECT_EQ(Image(256, 256).TypicalCompressedBytes(), 8192u);
  EXPECT_EQ(Image(512, 512).TypicalCompressedBytes(), 32768u);
  EXPECT_EQ(Image(1024, 1024).TypicalCompressedBytes(), 131072u);
}

// --- embedding space ---------------------------------------------------------

TEST(Embedding, TokenVectorsAreUnitAndDeterministic) {
  const Vec a = TokenEmbedding("mountain");
  const Vec b = TokenEmbedding("mountain");
  const Vec c = TokenEmbedding("Mountain");  // case folded
  EXPECT_NEAR(Norm(a), 1.0, 1e-9);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(Embedding, DistinctTokensNearlyOrthogonal) {
  const Vec a = TokenEmbedding("mountain");
  const Vec b = TokenEmbedding("goldfish");
  EXPECT_LT(std::abs(Cosine(a, b)), 0.45);
}

TEST(Embedding, TextEmbeddingIsNormalizedSum) {
  const Vec ab = TextEmbeddingOf("mountain lake");
  EXPECT_NEAR(Norm(ab), 1.0, 1e-9);
  EXPECT_GT(Cosine(ab, TokenEmbedding("mountain")), 0.4);
  EXPECT_GT(Cosine(ab, TokenEmbedding("lake")), 0.4);
}

TEST(Embedding, PlantAndRecoverRoundTrip) {
  // The core invariant behind the CLIP simulator: a planted semantic field
  // projects back to the planting embedding.
  const Vec text = TextEmbeddingOf("a misty mountain lake at dawn");
  const std::vector<double> field = SemanticField(text);
  Vec recovered = FieldToEmbedding(field);
  Normalize(recovered);
  // Recovery through 256 cells in a 64-dim space is near-exact up to
  // basis-sampling noise (~sqrt(d/cells)).
  EXPECT_GT(Cosine(text, recovered), 0.85);
}

// --- diffusion ----------------------------------------------------------------

TEST(Diffusion, DeterministicForSameInputs) {
  DiffusionModel model = Sd3();
  auto a = model.Generate("a pine forest", 64, 64, 15, 7);
  auto b = model.Generate("a pine forest", 64, 64, 15, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().image.data(), b.value().image.data());
}

TEST(Diffusion, SeedChangesOutput) {
  DiffusionModel model = Sd3();
  auto a = model.Generate("a pine forest", 64, 64, 15, 7);
  auto b = model.Generate("a pine forest", 64, 64, 15, 8);
  EXPECT_NE(a.value().image.data(), b.value().image.data());
}

TEST(Diffusion, RespectsRequestedDimensions) {
  DiffusionModel model = Sd3();
  auto result = model.Generate("x", 192, 144, 10, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().image.width(), 192);
  EXPECT_EQ(result.value().image.height(), 144);
}

TEST(Diffusion, InvalidArgumentsRejected) {
  DiffusionModel model = Sd3();
  EXPECT_FALSE(model.Generate("x", 0, 64, 15, 1).ok());
  EXPECT_FALSE(model.Generate("x", 64, -1, 15, 1).ok());
  EXPECT_FALSE(model.Generate("x", 64, 64, 0, 1).ok());
}

TEST(Diffusion, MoreStepsReduceResidualNoise) {
  DiffusionModel model = Sd3();
  const double residual_3 =
      model.Generate("x", 64, 64, 3, 1).value().info.residual_noise;
  const double residual_30 =
      model.Generate("x", 64, 64, 30, 1).value().info.residual_noise;
  EXPECT_GT(residual_3, residual_30);
}

TEST(Diffusion, HigherFidelityModelPlantsMoreSignal) {
  DiffusionModel sd21(FindImageModel(kSd21).value());
  DiffusionModel dalle(FindImageModel(kDalle3).value());
  const double plant_sd21 =
      sd21.Generate("x", 64, 64, 15, 1).value().info.plant_fidelity;
  const double plant_dalle =
      dalle.Generate("x", 64, 64, 15, 1).value().info.plant_fidelity;
  EXPECT_GT(plant_dalle, plant_sd21);
}

TEST(Diffusion, ClipScoreOrderingMatchesTable1) {
  // Table 1: SD 2.1 ≈ 0.19 < SD 3 ≈ 0.27 ≈ SD 3.5 < DALLE 3 ≈ 0.32;
  // random baseline ≈ 0.09.
  auto score_for = [](std::string_view name) {
    DiffusionModel model(FindImageModel(name).value());
    double sum = 0.0;
    const int n = 8;
    for (int i = 0; i < n; ++i) {
      const std::string prompt = core::MakeLandscapePrompt(500 + i);
      sum += metrics::ClipScore(
          prompt, model.Generate(prompt, 224, 224, 15, 40 + i).value().image);
    }
    return sum / n;
  };
  const double sd21 = score_for(kSd21);
  const double sd3 = score_for(kSd3Medium);
  const double sd35 = score_for(kSd35Medium);
  const double dalle = score_for(kDalle3);
  EXPECT_NEAR(sd21, 0.19, 0.04);
  EXPECT_NEAR(sd3, 0.27, 0.04);
  EXPECT_NEAR(sd35, 0.27, 0.04);
  EXPECT_NEAR(dalle, 0.32, 0.04);
  EXPECT_LT(sd21, sd3);
  EXPECT_LT(sd3, dalle);
}

TEST(Diffusion, RandomImageScoresAtFloor) {
  double sum = 0.0;
  for (int i = 0; i < 8; ++i) {
    sum += metrics::ClipScore(core::MakeLandscapePrompt(900 + i),
                              DiffusionModel::RandomImage(224, 224, i));
  }
  EXPECT_NEAR(sum / 8, 0.09, 0.03);
}

TEST(Diffusion, ClipScoreStableAcrossStepCounts) {
  // §6.3.1: steps 10→60 cause "only minor changes to CLIP score".
  DiffusionModel model = Sd3();
  const std::string prompt = "a coastal cliff above a calm sea";
  const double at_10 = metrics::ClipScore(
      prompt, model.Generate(prompt, 224, 224, 10, 3).value().image);
  const double at_60 = metrics::ClipScore(
      prompt, model.Generate(prompt, 224, 224, 60, 3).value().image);
  EXPECT_NEAR(at_10, at_60, 0.05);
}

// --- upscaler -----------------------------------------------------------------

TEST(Upscaler, ProducesRequestedSize) {
  DiffusionModel model = Sd3();
  const Image small = model.Generate("a harbor town", 64, 64, 15, 2).value().image;
  auto result = UpscaleBy(small, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().image.width(), 256);
  EXPECT_EQ(result.value().image.height(), 256);
}

TEST(Upscaler, PreservesSemantics) {
  // §2.2's upscale-only mode is only useful if enlarging does not destroy
  // the content: CLIP score must survive upscaling.
  DiffusionModel model = Sd3();
  const std::string prompt = "a harbor town at dusk, photograph";
  const Image small = model.Generate(prompt, 128, 128, 15, 2).value().image;
  const Image big = UpscaleBy(small, 4).value().image;
  const double score_small = metrics::ClipScore(prompt, small);
  const double score_big = metrics::ClipScore(prompt, big);
  EXPECT_NEAR(score_small, score_big, 0.03);
}

TEST(Upscaler, RejectsDownscaleAndEmpty) {
  Image image(32, 32);
  EXPECT_FALSE(Upscale(image, 16, 16, 1).ok());
  EXPECT_FALSE(Upscale(Image(), 16, 16, 1).ok());
  EXPECT_FALSE(UpscaleBy(image, 0).ok());
}

// --- prompt inversion -----------------------------------------------------------

TEST(PromptInversion, RecoversPlantedTokens) {
  DiffusionModel model(FindImageModel(kGpt4o).value());  // highest fidelity
  const Image image =
      model.Generate("a misty mountain lake with forest", 256, 256, 30, 5)
          .value()
          .image;
  PromptInverter inverter(PromptInverter::DefaultVocabulary());
  const auto tokens = inverter.RecoverTokens(image, 1.8);
  int recovered = 0;
  for (const std::string& token : tokens) {
    if (token == "mountain" || token == "lake" || token == "forest" ||
        token == "misty") {
      ++recovered;
    }
  }
  EXPECT_GE(recovered, 2);
}

TEST(PromptInversion, InvertedPromptRegeneratesSimilarImage) {
  // The paper's §4.2 conversion criterion: "maintaining high fidelity in
  // the re-generated images."  Invert → regenerate → the new image should
  // score well against the ORIGINAL prompt's content.
  DiffusionModel model(FindImageModel(kDalle3).value());
  const std::string original_prompt = "a mountain lake with forest reflection";
  const Image original =
      model.Generate(original_prompt, 224, 224, 15, 6).value().image;
  PromptInverter inverter(PromptInverter::DefaultVocabulary());
  const InvertedPrompt inverted = inverter.Invert(original, 6);
  ASSERT_FALSE(inverted.prompt.empty());
  const Image regenerated =
      model.Generate(inverted.prompt, 224, 224, 15, 6).value().image;
  EXPECT_GT(metrics::ClipScore(original_prompt, regenerated), 0.15);
}

TEST(PromptInversion, RandomImageYieldsNoConfidentTokens) {
  PromptInverter inverter(PromptInverter::DefaultVocabulary());
  const auto tokens =
      inverter.RecoverTokens(DiffusionModel::RandomImage(128, 128, 11), 3.5);
  EXPECT_LE(tokens.size(), 1u);
}

// --- pipeline -----------------------------------------------------------------

TEST(Pipeline, LoadsBothModelsOnce) {
  auto pipeline = GenerationPipeline::Load(kSd3Medium, kDeepseek8b);
  ASSERT_TRUE(pipeline.ok());
  EXPECT_GT(pipeline.value().load_seconds(), 0.0);
  EXPECT_EQ(pipeline.value().diffusion().spec().name, kSd3Medium);
  EXPECT_EQ(pipeline.value().text().spec().name, kDeepseek8b);
}

TEST(Pipeline, UnknownModelsRejected) {
  EXPECT_FALSE(GenerationPipeline::Load("sd-99", kDeepseek8b).ok());
  EXPECT_FALSE(GenerationPipeline::Load(kSd3Medium, "gpt-17").ok());
}

TEST(Pipeline, BiggerModelsLoadSlower) {
  const double sd21 = PipelineLoadSeconds(FindImageModel(kSd21).value());
  const double sd35 = PipelineLoadSeconds(FindImageModel(kSd35Medium).value());
  EXPECT_LT(sd21, sd35);
}

}  // namespace
}  // namespace sww::genai
