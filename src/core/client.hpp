// client.hpp — the generative client (§5.2).
//
// "the generative client begins by establishing a connection to the
// server, followed by exchanging settings, advertising its generation
// ability and logging the server's ability.  After this, the client can
// send a webpage request.  As the client receives the HTML file, it parses
// it and generates content.  Once parsing and generation are complete, the
// site is rendered."
//
// The prototype's three entities map to: the html:: parser, the
// core::PageRenderer (standing in for the PyQt GUI), and the http2::
// connection.  The client is transport-agnostic: callers provide a pump
// function that moves bytes between the connection and whatever carries
// them (in-memory pair, loopback TCP, or a direct link to a server object).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/http_semantics.hpp"
#include "core/media_generator.hpp"
#include "core/prompt_cache.hpp"
#include "http2/connection.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sww::core {

/// The outcome of fetching and materializing one page.
struct PageFetch {
  Response response;          ///< the page response itself
  bool from_cache = false;    ///< served from the local prompt cache
  /// §7 model negotiation: the page demanded a stronger model than this
  /// client has, so it was re-requested in materialized form.
  bool model_fallback = false;
  std::string mode;           ///< "generative" / "traditional" / "" (no header)
  std::string final_html;     ///< DOM after client-side generation
  /// All produced/downloaded files: generated images (PPM) and fetched
  /// unique assets, keyed by path.
  std::map<std::string, util::Bytes> files;
  /// Per-item generation details (prompts, sizes, simulated costs,
  /// verification).  Metadata only: an image's PPM bytes are moved into
  /// `files`, so its `file_bytes` here is empty.
  std::vector<GeneratedMedia> media;

  std::uint64_t page_bytes = 0;       ///< HTML bytes received
  std::uint64_t asset_bytes = 0;      ///< asset bytes received
  std::size_t generated_items = 0;
  double generation_seconds = 0.0;    ///< simulated device-seconds (sum)
  double generation_energy_wh = 0.0;

  /// §2.2 upscale-assist mode: images restored to authored size locally.
  std::size_t upscaled_items = 0;
  double upscale_seconds = 0.0;
  double upscale_energy_wh = 0.0;

  /// §7 trust: semantic-digest verification outcomes for items whose
  /// metadata carried a digest.
  std::size_t verified_items = 0;
  std::size_t failed_verification_items = 0;

  std::uint64_t TotalWireBytes() const { return page_bytes + asset_bytes; }
};

class GenerativeClient {
 public:
  struct Options {
    /// Ability advertised in SETTINGS_GEN_ABILITY (paper's prototype: 1).
    std::uint32_t advertised_ability = http2::kGenAbilityFull;
    /// Generate on the laptop profile (end-user device) by default.
    bool laptop = true;
    /// A page's items render across the process-wide pool by default;
    /// generator.pool = nullptr renders them on the calling thread.
    MediaGenerator::Options generator = [] {
      MediaGenerator::Options options;
      options.pool = &util::ThreadPool::Shared();
      return options;
    }();
    /// Cache generative-mode page bodies locally (512 KiB): a revisit
    /// regenerates everything on-device without touching the network.
    bool enable_prompt_cache = false;
    /// Advertise "accept-encoding: swz"; responses arrive content-coded
    /// and are decoded transparently (page_bytes reports wire bytes).
    bool accept_compression = false;
    /// Flight-recorder wire tap installed on the connection at creation
    /// (so the SETTINGS handshake is captured).  Not owned; must outlive
    /// the client.  nullptr disables frame recording.
    obs::ConnectionTap* wire_tap = nullptr;
  };

  /// Moves bytes between this connection and the peer once; returns an
  /// error only on transport/protocol failure.
  using PumpFn = std::function<util::Status()>;

  static util::Result<std::unique_ptr<GenerativeClient>> Create(Options options);

  http2::Connection& connection() { return *connection_; }
  void StartHandshake() { connection_->StartHandshake(); }

  /// True once the peer's SETTINGS arrived and both sides advertise full
  /// generation ability.
  bool NegotiatedGenerative() const { return connection_->generative_mode(); }

  /// Plain GET: request, pump to completion, parse the response.
  util::Result<Response> FetchRaw(const std::string& path, const PumpFn& pump);
  util::Result<Response> FetchRaw(const std::string& path, const PumpFn& pump,
                                  const hpack::HeaderList& extra_headers);

  /// Full SWW flow: GET the page, parse, generate content on-device (or
  /// fetch server-materialized assets in traditional mode), return the
  /// final page.
  util::Result<PageFetch> FetchPage(const std::string& path, const PumpFn& pump);

  const MediaGenerator& generator() const { return *generator_; }
  const PromptCache& prompt_cache() const { return prompt_cache_; }
  PromptCache& prompt_cache() { return prompt_cache_; }

 private:
  explicit GenerativeClient(Options options, MediaGenerator generator);

  /// Pump until `stream_id` saw END_STREAM and return its record; a reset
  /// stream fails with the RFC 9113 code the server sent.
  util::Result<const http2::Stream*> PumpUntilComplete(std::uint32_t stream_id,
                                                       const PumpFn& pump);
  /// FetchPage body; FetchPage itself wraps this to emit exactly one
  /// wide-event journal record and one fetch.latency observation per
  /// completed fetch, success or failure.
  util::Result<PageFetch> FetchPageInner(const std::string& path,
                                         const PumpFn& pump,
                                         obs::ScopedSpan& span);
  /// Handle pending connection events; fails if `stream_id` was reset.
  util::Status DrainEvents(std::uint32_t stream_id);
  /// A page body parsed once, with the generated-content specs that
  /// point into its document.
  struct ParsedPage {
    std::unique_ptr<html::Node> document;
    html::ExtractionResult extraction;
  };
  static util::Result<ParsedPage> ParsePage(const util::Bytes& body);
  /// Run generation/asset-fetch/upscale on `fetch`'s parsed page body and
  /// fill in the final DOM and statistics; fails with the parse error if
  /// the body did not parse.
  util::Status MaterializePage(PageFetch& fetch, util::Result<ParsedPage> page,
                               const PumpFn& pump);
  /// §7 model negotiation: does the page demand more fidelity than the
  /// loaded pipeline provides?
  bool RequiresStrongerModel(const html::ExtractionResult& extraction) const;

  Options options_;
  std::unique_ptr<MediaGenerator> generator_;
  std::unique_ptr<http2::Connection> connection_;
  PromptCache prompt_cache_{512 * 1024};

  // Process-wide client.* mirrors in obs::Registry.
  struct Instruments {
    obs::Counter* pages_fetched;
    obs::Counter* pages_from_cache;
    obs::Counter* model_fallbacks;
    obs::Counter* negotiations;
    obs::Counter* items_generated;
    obs::Histogram* page_bytes;
    obs::Histogram* asset_bytes;
    /// End-to-end FetchPage latency on the tracer clock (modeled
    /// seconds).  The SLO engine's stock fetch-latency objective and the
    /// /metrics exemplars both hang off this series.
    obs::Histogram* fetch_latency;
  };
  Instruments instruments_;
};

}  // namespace sww::core
