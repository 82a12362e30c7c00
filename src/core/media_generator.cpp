#include "core/media_generator.hpp"

#include <future>

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
    const html::GeneratedContentSpec& spec) const {
  switch (spec.type) {
    case html::GeneratedContentType::kImage:
      return BuildImage(spec);
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
  // Build phase: pure, so it can fan out across the pool.  Workers write
  // only their own slot; result order is fixed by the slot index, not by
  // completion order.
  std::vector<BuiltItem> built(specs.size());
  util::ThreadPool* pool = options_.pool;
  if (pool != nullptr && pool->worker_count() > 1 && specs.size() > 1) {
    std::vector<std::future<void>> pending;
    pending.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      pending.push_back(pool->Submit(
          [this, &specs, &built, i] { built[i] = BuildItem(specs[i]); }));
    }
    for (std::future<void>& item : pending) item.get();
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      built[i] = BuildItem(specs[i]);
    }
  }

  // Merge phase: calling thread, spec order.  The first failed item wins
  // (matching serial semantics) and later items leave no trace in stats,
  // audit, or telemetry.
  GeneratedBatch batch;
  batch.lanes = pool != nullptr ? pool->worker_count() : 1;
  std::vector<double> lane_load(static_cast<std::size_t>(batch.lanes), 0.0);
  batch.items.reserve(specs.size());
  for (BuiltItem& item : built) {
    auto media = Absorb(std::move(item));
    if (!media) return media.error();
    const double seconds = media.value().seconds;
    batch.device_seconds += seconds;
    // Deterministic greedy schedule: this item runs on the least-loaded
    // device lane (ties break low).  The makespan — not the device-second
    // sum — is the page's modeled generation wall time.
    std::size_t lane = 0;
    for (std::size_t l = 1; l < lane_load.size(); ++l) {
      if (lane_load[l] < lane_load[lane]) lane = l;
    }
    lane_load[lane] += seconds;
    batch.items.push_back(std::move(media).value());
  }
  for (const double load : lane_load) {
    batch.wall_seconds = std::max(batch.wall_seconds, load);
  }
  obs::Registry& registry = obs::Registry::Default();
  registry.GetCounter("genai.batches").Add();
  registry.GetHistogram("genai.batch_makespan_seconds")
      .Observe(batch.wall_seconds);
  return batch;
}

MediaGenerator::BuiltItem MediaGenerator::BuildImage(
    const html::GeneratedContentSpec& spec) const {
  BuiltItem item;
  std::string prompt = spec.prompt();
  if (prompt.empty()) {
    item.media = Error(ErrorCode::kInvalidArgument, "image spec has empty prompt");
    return item;
  }
  // §2.3: on-device personalization, consent-gated and strength-capped.
  const PersonalizedPrompt personalized =
      PersonalizePrompt(options_.profile, prompt);
  if (personalized.applied) {
    item.audit = PersonalizationRecord{spec.name(), prompt, personalized.prompt,
                                       personalized.injected_tokens};
    prompt = personalized.prompt;
  }
  const int width = spec.width();
  const int height = spec.height();
  // Seed from the prompt: re-generations of the same prompt agree, which
  // is what makes prompt-as-content a coherent delivery mechanism.
  const std::uint64_t seed = util::Fnv1a64(prompt);

  auto generated = pipeline_.diffusion().Generate(
      prompt, width, height, options_.inference_steps, seed);
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
  media.file_bytes = generated.value().image.ToPpmBytes();
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
  // The authored prompt is spec.prompt(); `prompt` may additionally carry
  // the bounded personalization suffix.
  if (const std::string digest_hex = spec.metadata.GetString("digest");
      !digest_hex.empty()) {
    media.has_verification = true;
    media.verification =
        VerifyGeneratedContent(spec.prompt(), prompt, DigestFromHex(digest_hex),
                               generated.value().image);
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
