#include "core/client.hpp"

#include "compress/swz.hpp"
#include "genai/upscaler.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace sww::core {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

Result<std::unique_ptr<GenerativeClient>> GenerativeClient::Create(
    Options options) {
  const energy::DeviceProfile& device =
      options.laptop ? energy::Laptop() : energy::Workstation();
  auto generator = MediaGenerator::Create(device, options.generator);
  if (!generator) return generator.error();
  return std::unique_ptr<GenerativeClient>(
      new GenerativeClient(std::move(options), std::move(generator).value()));
}

GenerativeClient::GenerativeClient(Options options, MediaGenerator generator)
    : options_(std::move(options)),
      generator_(std::make_unique<MediaGenerator>(std::move(generator))) {
  http2::Connection::Options conn_options;
  conn_options.local_settings.set_gen_ability(options_.advertised_ability);
  conn_options.local_settings.set_enable_push(false);
  conn_options.local_settings.set_initial_window_size(1 << 20);
  connection_ = std::make_unique<http2::Connection>(
      http2::Connection::Role::kClient, conn_options);
  connection_->SetWireTap(options_.wire_tap);
  obs::Registry& registry = obs::Registry::Default();
  instruments_.pages_fetched = &registry.GetCounter("client.pages_fetched");
  instruments_.pages_from_cache =
      &registry.GetCounter("client.pages_from_cache");
  instruments_.model_fallbacks = &registry.GetCounter("client.model_fallbacks");
  instruments_.negotiations = &registry.GetCounter("client.negotiations");
  instruments_.items_generated = &registry.GetCounter("client.items_generated");
  instruments_.page_bytes = &registry.GetHistogram("client.page_bytes");
  instruments_.asset_bytes = &registry.GetHistogram("client.asset_bytes");
  instruments_.fetch_latency = &registry.GetHistogram("fetch.latency");
}

Status GenerativeClient::DrainEvents(std::uint32_t stream_id) {
  Status status = Status::Ok();
  for (const http2::Connection::Event& event : connection_->TakeEvents()) {
    using Type = http2::Connection::Event::Type;
    switch (event.type) {
      case Type::kRemoteSettingsReceived:
        // §5.2: the client logs the server's advertised ability.
        instruments_.negotiations->Add();
        util::LogInfo("sww.client",
                      "server gen ability: " +
                          http2::GenAbilityToString(
                              connection_->remote_settings().gen_ability()));
        break;
      case Type::kStreamReset:
        if (event.stream_id == stream_id) {
          status = Error(ErrorCode::kClosed,
                         "stream " + std::to_string(stream_id) +
                             " reset by server: " +
                             http2::ErrorCodeName(event.error));
        }
        break;
      default:
        break;
    }
  }
  return status;
}

Result<const http2::Stream*> GenerativeClient::PumpUntilComplete(
    std::uint32_t stream_id, const PumpFn& pump) {
  constexpr int kMaxRounds = 1024;
  for (int round = 0; round < kMaxRounds; ++round) {
    if (Status status = DrainEvents(stream_id); !status.ok()) {
      return status.error();
    }
    // No record: our side reset the stream (a stream error it detected).
    const http2::Stream* stream = connection_->FindStream(stream_id);
    if (stream == nullptr) {
      return Error(ErrorCode::kClosed,
                   "stream " + std::to_string(stream_id) + " was reset");
    }
    if (stream->remote_end) return stream;
    if (Status status = pump(); !status.ok()) return status.error();
  }
  return Error(ErrorCode::kIo, "pump did not complete stream " +
                                   std::to_string(stream_id));
}

Result<Response> GenerativeClient::FetchRaw(const std::string& path,
                                            const PumpFn& pump) {
  return FetchRaw(path, pump, {});
}

Result<Response> GenerativeClient::FetchRaw(
    const std::string& path, const PumpFn& pump,
    const hpack::HeaderList& extra_headers) {
  obs::ScopedSpan span("client.fetch", "core");
  span.SetProcess("client");
  span.AddAttribute("path", path);
  if (!connection_->handshake_started()) {
    connection_->StartHandshake();
  }
  Request request;
  request.path = path;
  request.authority = "sww.local";
  request.extra_headers = extra_headers;
  // Cross-process trace propagation: the server parents its
  // server.request span under this fetch via the sww-trace header, so the
  // whole exchange exports as one distributed trace.
  if (const obs::SpanContext context = span.context(); context.valid()) {
    request.extra_headers.push_back(
        {std::string(obs::kTraceHeaderName), obs::FormatTraceHeader(context),
         false});
  }
  if (options_.accept_compression) {
    request.extra_headers.push_back(
        {"accept-encoding", std::string(compress::kContentCoding), false});
  }
  auto stream_id = connection_->SubmitRequest(request.ToHeaders(), {});
  if (!stream_id) return stream_id.error();
  auto stream = PumpUntilComplete(stream_id.value(), pump);
  if (!stream) return stream.error();
  auto response = ParseResponse(stream.value()->headers, stream.value()->body);
  connection_->ReleaseStream(stream_id.value());
  if (!response) return response;
  span.AddAttribute("status", std::to_string(response.value().status));
  span.AddAttribute("wire_bytes",
                    std::to_string(response.value().wire_body_bytes));
  // Transparent content decoding: body becomes the decoded entity while
  // wire_body_bytes keeps what actually crossed the network.
  if (response.value().Header("content-encoding").value_or("") ==
      compress::kContentCoding) {
    auto decoded = compress::SwzDecompress(response.value().body);
    if (!decoded) return decoded.error();
    response.value().body = std::move(decoded).value();
  }
  return response;
}

Result<GenerativeClient::ParsedPage> GenerativeClient::ParsePage(
    const util::Bytes& body) {
  auto document = html::ParseDocument(std::string_view(
      reinterpret_cast<const char*>(body.data()), body.size()));
  if (!document) return document.error();
  ParsedPage page;
  page.document = std::move(document).value();
  page.extraction = html::ExtractGeneratedContent(*page.document);
  return page;
}

Status GenerativeClient::MaterializePage(PageFetch& fetch, Result<ParsedPage> page,
                                         const PumpFn& pump) {
  obs::ScopedSpan span("client.materialize", "core");
  span.SetProcess("client");
  if (!page) return page.error();
  const std::unique_ptr<html::Node>& document = page.value().document;
  html::ExtractionResult& extraction = page.value().extraction;

  // Client-side generation: materialize every generated-content div as
  // one batch — independent specs fan out across the generator's pool,
  // and results merge back here in document order (DOM splices, files,
  // stats, and warnings are deterministic for any thread count).
  auto batch = generator_->GenerateBatch(extraction.specs);
  if (!batch) return batch.error();
  fetch.generation_seconds += batch.value().device_seconds;
  for (std::size_t i = 0; i < batch.value().items.size(); ++i) {
    GeneratedMedia& media = batch.value().items[i];
    MediaGenerator::Splice(extraction.specs[i], media);
    fetch.generation_energy_wh += media.energy_wh;
    if (media.type == html::GeneratedContentType::kImage) {
      fetch.files[media.file_path] = std::move(media.file_bytes);
    }
    if (media.has_verification) {
      if (media.verification.verified()) {
        ++fetch.verified_items;
      } else {
        ++fetch.failed_verification_items;
        // One warn per failed item can storm on a corrupted page; the
        // per-site bucket keeps the tail while reporting the drop count.
        SWW_LOG_RATELIMITED(
            util::LogLevel::kWarn, "sww.client",
            "semantic digest mismatch for generated item '" + media.name +
                "' (distance " +
                std::to_string(media.verification.distance) + ")");
      }
    }
    fetch.media.push_back(std::move(media));
    ++fetch.generated_items;
    instruments_.items_generated->Add();
  }

  // Unique content files "are fetched, same as today" — follow root-
  // relative <img> links that generation did not satisfy locally.
  for (html::Node* img : document->FindByTag("img")) {
    const std::string src = img->GetAttribute("src").value_or("");
    if (src.empty() || src[0] != '/') continue;  // local generated file
    if (fetch.files.count(src) != 0) continue;
    auto asset = FetchRaw(src, pump);
    if (!asset) return asset.error();
    if (asset.value().status == 200) {
      fetch.asset_bytes += asset.value().wire_body_bytes;
      instruments_.asset_bytes->Observe(
          static_cast<double>(asset.value().wire_body_bytes),
          span.context().trace_id,
          obs::Tracer::Default().clock().NowNanos());
      fetch.files[src] = std::move(asset.value().body);
    }
  }

  // §2.2 upscale-assist: restore half-resolution assets to authored size.
  for (html::Node* img : document->FindByTag("img")) {
    const std::string factor_attr =
        img->GetAttribute("data-sww-upscale").value_or("");
    if (factor_attr.empty()) continue;
    const std::string src = img->GetAttribute("src").value_or("");
    auto file = fetch.files.find(src);
    if (file == fetch.files.end()) continue;
    auto small = genai::Image::FromPpm(std::string_view(
        reinterpret_cast<const char*>(file->second.data()), file->second.size()));
    if (!small) continue;  // non-PPM unique asset; leave as-is
    int width = 0, height = 0;
    try {
      width = std::stoi(img->GetAttribute("width").value_or("0"));
      height = std::stoi(img->GetAttribute("height").value_or("0"));
    } catch (...) {
      continue;
    }
    if (width <= small.value().width() || height <= small.value().height()) {
      continue;
    }
    auto upscaled = genai::Upscale(small.value(), width, height);
    if (!upscaled) continue;
    file->second = upscaled.value().image.ToPpmBytes();
    img->RemoveAttribute("data-sww-upscale");
    ++fetch.upscaled_items;
    fetch.upscale_seconds +=
        energy::UpscaleSeconds(generator_->device(), width, height);
    fetch.upscale_energy_wh +=
        energy::UpscaleEnergyWh(generator_->device(), width, height);
  }

  fetch.final_html = document->Serialize();
  span.AddAttribute("generated_items", std::to_string(fetch.generated_items));
  span.AddAttribute("upscaled_items", std::to_string(fetch.upscaled_items));
  return Status::Ok();
}

Result<PageFetch> GenerativeClient::FetchPage(const std::string& path,
                                              const PumpFn& pump) {
  obs::Tracer& tracer = obs::Tracer::Default();
  const std::uint64_t start_nanos = tracer.clock().NowNanos();
  const http2::Connection::WireStats before = connection_->wire_stats();
  obs::ScopedSpan span("client.fetch_page", "core");
  span.SetProcess("client");
  span.AddAttribute("path", path);

  Result<PageFetch> fetch = FetchPageInner(path, pump, span);

  // The tail-attribution contract: exactly one wide event and one
  // fetch.latency observation per completed fetch — success or failure —
  // all keyed by the trace id the wire already carried.
  const std::uint64_t end_nanos = tracer.clock().NowNanos();
  const double total_seconds =
      static_cast<double>(end_nanos - start_nanos) * 1e-9;
  const obs::SpanContext context = span.context();
  instruments_.fetch_latency->Observe(total_seconds, context.trace_id,
                                      end_nanos);

  obs::JournalRecord record;
  record.kind = "page_fetch";
  record.trace_id = context.trace_id;
  record.path = path;
  record.timestamp_nanos = end_nanos;
  record.device = generator_->device().name;
  record.total_seconds = total_seconds;
  const http2::Connection::WireStats& after = connection_->wire_stats();
  record.wire_bytes_sent = after.bytes_sent - before.bytes_sent;
  record.wire_bytes_received = after.bytes_received - before.bytes_received;
  record.frames_sent = after.frames_sent.total() - before.frames_sent.total();
  record.frames_received =
      after.frames_received.total() - before.frames_received.total();
  if (fetch.ok()) {
    const PageFetch& result = fetch.value();
    record.outcome = "ok";
    record.mode = result.mode;
    record.cache = options_.enable_prompt_cache
                       ? (result.from_cache ? "hit" : "miss")
                       : "none";
    record.generation_seconds = result.generation_seconds;
    record.upscale_seconds = result.upscale_seconds;
    const double local_seconds =
        result.generation_seconds + result.upscale_seconds;
    record.wire_seconds =
        total_seconds > local_seconds ? total_seconds - local_seconds : 0.0;
    record.page_bytes = result.page_bytes;
    record.asset_bytes = result.asset_bytes;
    record.energy_joules =
        (result.generation_energy_wh + result.upscale_energy_wh) * 3600.0;
  } else {
    record.outcome = util::ErrorCodeName(fetch.error().code);
    record.cache = options_.enable_prompt_cache ? "miss" : "none";
    record.wire_seconds = total_seconds;
  }
  obs::Journal::Default().Record(std::move(record));
  return fetch;
}

Result<PageFetch> GenerativeClient::FetchPageInner(const std::string& path,
                                                   const PumpFn& pump,
                                                   obs::ScopedSpan& span) {
  instruments_.pages_fetched->Add();
  // Prompt-cache fast path: a cached generative page regenerates entirely
  // on-device; the network is not touched for the page body.
  if (options_.enable_prompt_cache) {
    if (std::optional<std::string> cached = prompt_cache_.Get(path)) {
      PageFetch fetch;
      fetch.from_cache = true;
      fetch.mode = "generative";
      fetch.response.status = 200;
      fetch.response.SetHeader(std::string(kSwwModeHeader), "generative");
      fetch.response.body = util::ToBytes(*cached);
      instruments_.pages_from_cache->Add();
      span.AddAttribute("from_cache", "true");
      if (Status status = MaterializePage(fetch, ParsePage(fetch.response.body), pump);
          !status.ok()) {
        return status.error();
      }
      return fetch;
    }
  }

  auto response = FetchRaw(path, pump);
  if (!response) return response.error();

  PageFetch fetch;
  fetch.response = std::move(response).value();
  fetch.page_bytes = fetch.response.wire_body_bytes;
  instruments_.page_bytes->Observe(
      static_cast<double>(fetch.response.wire_body_bytes),
      span.context().trace_id, obs::Tracer::Default().clock().NowNanos());
  fetch.mode = fetch.response.Header(kSwwModeHeader).value_or("");
  span.AddAttribute("mode", fetch.mode.empty() ? "-" : fetch.mode);
  if (fetch.response.status != 200) {
    fetch.final_html = util::ToString(fetch.response.body);
    return fetch;
  }

  // The body is parsed once: the model check below and the
  // materialization share the document.
  Result<ParsedPage> page = ParsePage(fetch.response.body);

  // §7 model negotiation: if the page demands more model than this client
  // carries, re-request it materialized rather than render it badly.
  if (fetch.mode == "generative" && page.ok() &&
      RequiresStrongerModel(page.value().extraction)) {
    util::LogInfo("sww.client",
                  "page requires a stronger model; falling back to "
                  "materialized delivery");
    hpack::HeaderList force = {
        {std::string(kSwwForceHeader), "traditional", false}};
    auto forced = FetchRaw(path, pump, force);
    if (!forced) return forced.error();
    fetch.response = std::move(forced).value();
    fetch.page_bytes += fetch.response.wire_body_bytes;
    instruments_.page_bytes->Observe(
        static_cast<double>(fetch.response.wire_body_bytes),
        span.context().trace_id, obs::Tracer::Default().clock().NowNanos());
    fetch.mode = fetch.response.Header(kSwwModeHeader).value_or("");
    fetch.model_fallback = true;
    instruments_.model_fallbacks->Add();
    span.AddAttribute("model_fallback", "true");
    if (Status status = MaterializePage(fetch, ParsePage(fetch.response.body), pump);
        !status.ok()) {
      return status.error();
    }
    return fetch;
  }

  // Only the generative (prompt) form is cacheable: traditional and
  // upscale-assist bodies reference ephemeral server-side assets.
  if (options_.enable_prompt_cache && fetch.mode == "generative") {
    prompt_cache_.Put(path, util::ToString(fetch.response.body));
  }

  if (Status status = MaterializePage(fetch, std::move(page), pump); !status.ok()) {
    return status.error();
  }
  return fetch;
}

bool GenerativeClient::RequiresStrongerModel(
    const html::ExtractionResult& extraction) const {
  for (const html::GeneratedContentSpec& spec : extraction.specs) {
    const double required = spec.metadata.GetNumber("min_fidelity", 0.0);
    const double available =
        spec.type == html::GeneratedContentType::kImage
            ? generator_->pipeline().diffusion().spec().fidelity
            : generator_->pipeline().text().spec().fidelity;
    if (required > available) return true;
  }
  return false;
}

}  // namespace sww::core
