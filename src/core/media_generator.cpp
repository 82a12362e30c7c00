#include "core/media_generator.hpp"

#include "core/content_store.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace sww::core {

using util::Error;
using util::ErrorCode;
using util::Result;

Result<MediaGenerator> MediaGenerator::Create(
    const energy::DeviceProfile& device, Options options) {
  auto pipeline =
      genai::GenerationPipeline::Load(options.image_model, options.text_model);
  if (!pipeline) return pipeline.error();
  return MediaGenerator(device, std::move(options),
                        std::move(pipeline).value());
}

MediaGenerator::BuiltItem MediaGenerator::BuildItem(
    const html::GeneratedContentSpec& spec, util::Bytes ppm) const {
  switch (spec.type) {
    case html::GeneratedContentType::kImage:
      return BuildImage(spec, std::move(ppm));
    case html::GeneratedContentType::kText:
      return BuildText(spec);
    default: {
      BuiltItem item;
      item.media = Error(ErrorCode::kInvalidArgument,
                         "unknown generated content type");
      return item;
    }
  }
}

Result<GeneratedMedia> MediaGenerator::Absorb(BuiltItem built) {
  // One span per materialized asset; under a ManualClock the span's
  // duration is the simulated generation cost on this device.  Emitted on
  // the calling thread so spans nest under the page-fetch span and the
  // trace is deterministic no matter which worker built the item.
  obs::ScopedSpan span("genai.generate", "genai");
  if (built.audit.has_value()) {
    audit_.Record(std::move(built.audit).value());
  }
  if (!built.media) {
    span.AddAttribute("error", built.media.error().ToString());
    return built.media;
  }
  pipeline_.CountInvocation();
  const GeneratedMedia& item = built.media.value();
  const bool is_image = item.type == html::GeneratedContentType::kImage;
  span.AddAttribute("type", is_image ? "image" : "text");
  span.AddAttribute("name", item.name);
  span.AddAttribute("model", is_image ? options_.image_model
                                      : options_.text_model);
  if (is_image) {
    span.AddAttribute("steps", std::to_string(options_.inference_steps));
    span.AddAttribute("resolution",
                      util::Format("%dx%d", item.width, item.height));
  } else {
    span.AddAttribute("words", std::to_string(item.words));
  }
  span.AddAttribute("seconds", util::Format("%.3f", item.seconds));
  obs::Registry& registry = obs::Registry::Default();
  registry.GetCounter(is_image ? "genai.images_generated"
                               : "genai.texts_generated").Add();
  registry.GetGauge("genai.generation_seconds").Add(item.seconds);
  registry.GetGauge("genai.generation_energy_wh").Add(item.energy_wh);
  registry.GetHistogram("genai.item_seconds").Observe(item.seconds);
  obs::Tracer::Default().clock().AdvanceSimulated(item.seconds);
  total_seconds_ += item.seconds;
  total_energy_wh_ += item.energy_wh;
  ++items_;
  return built.media;
}

Result<GeneratedMedia> MediaGenerator::Generate(
    const html::GeneratedContentSpec& spec) {
  return Absorb(BuildItem(spec));
}

Result<GeneratedMedia> MediaGenerator::GenerateAndReplace(
    html::GeneratedContentSpec& spec) {
  auto media = Generate(spec);
  if (!media) return media;
  Splice(spec, media.value());
  return media;
}

void MediaGenerator::Splice(html::GeneratedContentSpec& spec,
                            const GeneratedMedia& media) {
  if (spec.node == nullptr) return;
  if (media.type == html::GeneratedContentType::kImage) {
    html::ReplaceWithImage(*spec.node, media.file_path, media.width,
                           media.height, media.prompt);
  } else {
    html::ReplaceWithText(*spec.node, media.text);
  }
}

Result<GeneratedBatch> MediaGenerator::GenerateBatch(
    const std::vector<html::GeneratedContentSpec>& specs) {
  // An image's PPM buffer outlives its build, so it is allocated here on
  // the calling thread and the worker only encodes into it.  Allocated on
  // a worker, it would grow that worker's malloc arena, which glibc keeps
  // as resident memory: the Figure 2 page peaked at 28-29 MB that way
  // against 22 MB with the buffers allocated here.  Only a spec that
  // BuildImage renders gets a buffer: an empty prompt fails before any
  // allocation, and a page-supplied size beyond what a PPM may carry is
  // left to the build, as on the serial path.
  std::vector<util::Bytes> ppm(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const html::GeneratedContentSpec& spec = specs[i];
    if (spec.type != html::GeneratedContentType::kImage || spec.prompt().empty()) {
      continue;
    }
    const int width = spec.width();
    const int height = spec.height();
    if (width > 0 && height > 0 && width <= genai::Image::kMaxPpmDimension &&
        height <= genai::Image::kMaxPpmDimension) {
      ppm[i].reserve(genai::Image::PpmSize(width, height));
    }
  }

  // Build phase: pure, so it fans out one item per chunk across the pool,
  // the calling thread included.  Workers write only their own slot; the
  // result order is the slot index, not completion order.  ParallelFor
  // returns (or rethrows) only after every chunk has finished with
  // `built`.
  std::vector<BuiltItem> built(specs.size());
  auto build = [this, &specs, &ppm, &built](std::int64_t begin, std::int64_t end) {
    for (auto i = static_cast<std::size_t>(begin); i < static_cast<std::size_t>(end);
         ++i) {
      built[i] = BuildItem(specs[i], std::move(ppm[i]));
    }
  };
  const auto count = static_cast<std::int64_t>(specs.size());
  if (options_.pool != nullptr) {
    options_.pool->ParallelFor(count, build, /*grain=*/1);
  } else {
    build(0, count);
  }

  // Merge phase: calling thread, spec order.  The first failed item wins
  // (matching serial semantics) and later items leave no trace in stats,
  // audit, or telemetry.
  GeneratedBatch batch;
  batch.items.reserve(specs.size());
  for (BuiltItem& item : built) {
    auto media = Absorb(std::move(item));
    if (!media) return media.error();
    batch.device_seconds += media.value().seconds;
    batch.items.push_back(std::move(media).value());
  }
  obs::Registry& registry = obs::Registry::Default();
  registry.GetCounter("genai.batches").Add();
  registry.GetHistogram("genai.batch_makespan_seconds")
      .Observe(batch.device_seconds);
  return batch;
}

MediaGenerator::BuiltItem MediaGenerator::BuildImage(
    const html::GeneratedContentSpec& spec, util::Bytes ppm) const {
  BuiltItem item;
  const std::string authored = spec.prompt();
  std::string prompt = authored;
  if (prompt.empty()) {
    item.media = Error(ErrorCode::kInvalidArgument, "image spec has empty prompt");
    return item;
  }
  // §2.3: on-device personalization, consent-gated and strength-capped.
  const PersonalizedPrompt personalized =
      PersonalizePrompt(options_.profile, prompt);
  if (personalized.applied) {
    item.audit = PersonalizationRecord{spec.name(), authored, personalized.prompt,
                                       personalized.injected_tokens};
    prompt = personalized.prompt;
  }
  const int width = spec.width();
  const int height = spec.height();
  // Seed from the prompt: re-generations of the same prompt agree, which
  // is what makes prompt-as-content a coherent delivery mechanism.
  const std::uint64_t seed = util::Fnv1a64(prompt);

  // One text embedding serves the render's conditioning and, below, the
  // §7 digest of the received prompt (and of the authored one when no
  // personalization changed it).
  const genai::Vec embedding = genai::TextEmbeddingOf(prompt);
  auto generated = pipeline_.diffusion().Generate(
      prompt, embedding, width, height, options_.inference_steps, seed);
  if (!generated) {
    item.media = generated.error();
    return item;
  }

  GeneratedMedia media;
  media.type = html::GeneratedContentType::kImage;
  media.name = spec.name().empty()
                   ? util::Format("img-%016llx",
                                  static_cast<unsigned long long>(seed))
                   : spec.name();
  media.prompt = prompt;
  media.width = width;
  media.height = height;
  media.file_path = options_.output_prefix + media.name + ".ppm";
  generated.value().image.AppendPpm(ppm);
  media.file_bytes = std::move(ppm);
  media.seconds = energy::ImageGenerationSeconds(
      *device_, pipeline_.diffusion().spec(), options_.inference_steps, width,
      height);
  media.energy_wh = energy::ImageGenerationEnergyWh(
      *device_, pipeline_.diffusion().spec(), options_.inference_steps, width,
      height);
  media.traditional_bytes = TraditionalItemBytes(spec.type, spec.metadata);
  media.metadata_bytes = spec.MetadataBytes();

  // §7 trust: when the author attached a semantic digest, verify both the
  // integrity of the received prompt and the faithfulness of the pixels.
  // `prompt` may carry the bounded personalization suffix on top of the
  // authored prompt, which then needs its own embedding.
  if (const std::string digest_hex = spec.metadata.GetString("digest");
      !digest_hex.empty()) {
    media.has_verification = true;
    const SemanticDigest received = DigestOfEmbedding(embedding);
    const PromptDigests digests{
        prompt == authored ? received : DigestOfPrompt(authored), received};
    media.verification = VerifyGeneratedContent(
        digests, DigestFromHex(digest_hex), generated.value().image);
    // Draft-quality generation (fewer steps than the model's default)
    // legitimately carries more residual noise; hold only full-quality
    // output to the faithfulness budget.  Prompt integrity always applies.
    if (options_.inference_steps <
        pipeline_.diffusion().spec().default_steps) {
      media.verification.semantically_faithful = true;
    }
  }

  item.media = std::move(media);
  return item;
}

MediaGenerator::BuiltItem MediaGenerator::BuildText(
    const html::GeneratedContentSpec& spec) const {
  BuiltItem item;
  // Bullets come from the metadata either as an array ("bullets") or as a
  // single prompt string.
  std::vector<std::string> bullets;
  if (const json::Value* array = spec.metadata.Get("bullets");
      array != nullptr && array->is_array()) {
    for (const json::Value& value : array->AsArray()) {
      if (value.is_string()) bullets.push_back(value.AsString());
    }
  }
  if (bullets.empty()) {
    const std::string prompt = spec.prompt();
    if (prompt.empty()) {
      item.media = Error(ErrorCode::kInvalidArgument,
                         "text spec has neither bullets nor prompt");
      return item;
    }
    bullets.push_back(prompt);
  }
  // §2.3: a consenting profile may add one bounded personalization bullet.
  // The authored prompt (bullets joined) is invariant across the branches
  // below — join once and reuse it for personalization, the audit record,
  // and the media prompt.
  const std::string joined = util::Join(bullets, "; ");
  const PersonalizedPrompt personalized =
      PersonalizePrompt(options_.profile, joined);
  if (personalized.applied) {
    item.audit = PersonalizationRecord{spec.name(), joined,
                                       personalized.prompt,
                                       personalized.injected_tokens};
    bullets.push_back("mention " + util::Join(personalized.injected_tokens,
                                              " and "));
  }

  const int words = spec.words();
  std::uint64_t seed = 0;
  for (const std::string& bullet : bullets) {
    seed = util::HashCombine(seed, util::Fnv1a64(bullet));
  }

  auto expanded = pipeline_.text().ExpandBullets(bullets, words, seed);
  if (!expanded) {
    item.media = expanded.error();
    return item;
  }

  GeneratedMedia media;
  media.type = html::GeneratedContentType::kText;
  media.name = spec.name();
  // With a personalization bullet appended the effective prompt grew;
  // otherwise it is exactly the authored join.
  media.prompt = personalized.applied ? util::Join(bullets, "; ") : joined;
  media.text = expanded.value().text;
  media.words = expanded.value().actual_words;
  media.seconds = energy::TextGenerationSeconds(*device_, pipeline_.text().spec(),
                                                words);
  media.energy_wh = energy::TextGenerationEnergyWh(
      *device_, pipeline_.text().spec(), words);
  media.traditional_bytes = TraditionalItemBytes(spec.type, spec.metadata);
  media.metadata_bytes = spec.MetadataBytes();
  item.media = std::move(media);
  return item;
}

}  // namespace sww::core
