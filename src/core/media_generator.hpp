// media_generator.hpp — the paper's media generator object (§4.1).
//
// "The media generator has two roles: parsing the passed metadata and
// invoking content generation using the parsed information.  The media
// generator has two generation subroutines, one to generate text and the
// other to generate images."
//
// It holds a *preloaded* GenerationPipeline (the paper's performance
// optimization) and a device profile, so every invocation also yields the
// simulated time and energy that generation would cost on that device —
// the quantities §6 evaluates.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/personalization.hpp"
#include "core/verification.hpp"
#include "energy/device.hpp"
#include "genai/pipeline.hpp"
#include "html/generated_content.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sww::core {

/// One materialized item.
struct GeneratedMedia {
  html::GeneratedContentType type;
  std::string name;          ///< metadata "name" (or derived)
  std::string prompt;
  /// Image output: file path + bytes (PPM).  Text output: the prose.
  std::string file_path;     ///< e.g. "generated/goldfish.ppm" (images)
  util::Bytes file_bytes;
  std::string text;          ///< expanded prose (text items)
  int width = 0, height = 0;
  int words = 0;

  // Simulated cost on the generator's device.
  double seconds = 0.0;
  double energy_wh = 0.0;

  /// §7 trust: set when the metadata carried a semantic digest.
  bool has_verification = false;
  ContentVerification verification;

  /// Bytes this item would have cost to transmit in traditional form.
  std::size_t traditional_bytes = 0;
  /// Bytes its prompt/metadata actually cost.
  std::size_t metadata_bytes = 0;
};

/// The outcome of materializing a page's specs as one concurrent batch.
/// `items` is in spec order regardless of which worker finished first.
struct GeneratedBatch {
  std::vector<GeneratedMedia> items;
  /// Total device-seconds across items (what energy accounting sums).  The
  /// modeled device renders one item at a time, so this is also the
  /// batch's modeled generation time, however many host threads ran it.
  double device_seconds = 0.0;
};

class MediaGenerator {
 public:
  struct Options {
    std::string image_model = "sd-3-medium";
    std::string text_model = "deepseek-r1-8b";
    int inference_steps = 15;   ///< the paper's evaluation step count
    /// Directory prefix used in generated file paths.
    std::string output_prefix = "generated/";
    /// §2.3: optional on-device personalization.  Inert unless the user
    /// consented; bounded by its strength cap; every application is
    /// recorded in audit().
    PersonalizationProfile profile;
    /// Host threads: when set, GenerateBatch renders a page's items one
    /// per chunk across this pool, the calling thread included; each item
    /// renders on one thread.  nullptr (the default) renders serially on
    /// the calling thread; GenerativeClient defaults to the process-wide
    /// pool.  Output bytes, stats, audit order and modeled seconds are
    /// identical with any pool or none: the build phase is pure and all
    /// side effects merge on the calling thread in spec order.  Not
    /// owned; must outlive the generator.
    util::ThreadPool* pool = nullptr;
  };

  /// Loads the pipeline once (preloaded-pipeline optimization).
  static util::Result<MediaGenerator> Create(const energy::DeviceProfile& device,
                                             Options options);

  /// Materialize one generated-content spec.  Deterministic: the seed is
  /// derived from the prompt, so the same prompt yields the same bytes.
  util::Result<GeneratedMedia> Generate(const html::GeneratedContentSpec& spec);

  /// Materialize and splice into the DOM: the placeholder div becomes an
  /// <img> (Figure 1's "after") or a text paragraph.
  util::Result<GeneratedMedia> GenerateAndReplace(html::GeneratedContentSpec& spec);

  /// Materialize every spec of a page as one batch.  With a pool in
  /// Options, items build concurrently; results, stats, audit records,
  /// and telemetry merge on the calling thread in spec order, so every
  /// observable outcome is byte-identical to the serial path.  Fails with
  /// the first (spec-order) item error; items after a failed one produce
  /// no side effects, matching serial semantics.  Does not touch the DOM
  /// — pair with Splice.
  util::Result<GeneratedBatch> GenerateBatch(
      const std::vector<html::GeneratedContentSpec>& specs);

  /// Replace a placeholder div with its materialized media (the DOM half
  /// of GenerateAndReplace, usable after a batch).
  static void Splice(html::GeneratedContentSpec& spec,
                     const GeneratedMedia& media);

  const energy::DeviceProfile& device() const { return *device_; }
  const genai::GenerationPipeline& pipeline() const { return pipeline_; }
  int inference_steps() const { return options_.inference_steps; }

  /// Cumulative simulated cost since creation.
  double total_seconds() const { return total_seconds_; }
  double total_energy_wh() const { return total_energy_wh_; }
  std::uint64_t items_generated() const { return items_; }

  /// Disclosure ledger of applied personalizations (§2.3).
  const PersonalizationAudit& audit() const { return audit_; }

 private:
  MediaGenerator(const energy::DeviceProfile& device, Options options,
                 genai::GenerationPipeline pipeline)
      : device_(&device), options_(std::move(options)),
        pipeline_(std::move(pipeline)) {}

  /// One item's pure build output: no shared state touched yet.  The
  /// personalization record (if any) is carried alongside so the audit
  /// ledger can be appended in spec order at merge time.
  struct BuiltItem {
    util::Result<GeneratedMedia> media{GeneratedMedia{}};
    std::optional<PersonalizationRecord> audit;
  };

  /// Pure compute phase — safe to run on any pool worker: reads options_
  /// and pipeline_ (const), mutates nothing.  An image's PPM is encoded
  /// into `ppm`, which GenerateBatch reserves on the calling thread.
  BuiltItem BuildItem(const html::GeneratedContentSpec& spec,
                      util::Bytes ppm = {}) const;
  BuiltItem BuildImage(const html::GeneratedContentSpec& spec,
                       util::Bytes ppm) const;
  BuiltItem BuildText(const html::GeneratedContentSpec& spec) const;

  /// Merge phase — calling thread only, spec order: emits the
  /// genai.generate span, registry counters, simulated clock advance,
  /// audit record, and cumulative totals for one built item.
  util::Result<GeneratedMedia> Absorb(BuiltItem built);

  const energy::DeviceProfile* device_;
  Options options_;
  genai::GenerationPipeline pipeline_;
  PersonalizationAudit audit_;
  double total_seconds_ = 0.0;
  double total_energy_wh_ = 0.0;
  std::uint64_t items_ = 0;
};

}  // namespace sww::core
