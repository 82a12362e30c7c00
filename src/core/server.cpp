#include "core/server.hpp"

#include "compress/swz.hpp"
#include "html/parser.hpp"
#include "obs/expose.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace sww::core {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

Result<std::unique_ptr<GenerativeServer>> GenerativeServer::Create(
    const ContentStore* store, Options options) {
  const energy::DeviceProfile& device =
      options.workstation ? energy::Workstation() : energy::Laptop();
  auto generator = MediaGenerator::Create(device, options.generator);
  if (!generator) return generator.error();
  return std::unique_ptr<GenerativeServer>(new GenerativeServer(
      store, std::move(options), std::move(generator).value()));
}

GenerativeServer::GenerativeServer(const ContentStore* store, Options options,
                                   MediaGenerator generator)
    : store_(store), options_(std::move(options)), generator_(std::move(generator)) {
  http2::Connection::Options conn_options;
  conn_options.local_settings.set_gen_ability(options_.advertised_ability);
  conn_options.local_settings.set_enable_push(false);
  conn_options.local_settings.set_initial_window_size(1 << 20);
  connection_ = std::make_unique<http2::Connection>(
      http2::Connection::Role::kServer, conn_options);
  connection_->SetWireTap(options_.wire_tap);
  obs::Registry& registry = obs::Registry::Default();
  instruments_.requests = &registry.GetCounter("server.requests");
  instruments_.pages_generative = &registry.GetCounter("server.pages_generative");
  instruments_.pages_upscale = &registry.GetCounter("server.pages_upscale");
  instruments_.pages_traditional =
      &registry.GetCounter("server.pages_traditional");
  instruments_.assets_served = &registry.GetCounter("server.assets_served");
  instruments_.telemetry_requests =
      &registry.GetCounter("server.telemetry_requests");
  instruments_.not_found = &registry.GetCounter("server.not_found");
  instruments_.errors = &registry.GetCounter("server.errors");
  instruments_.negotiations = &registry.GetCounter("server.negotiations");
  instruments_.page_bytes = &registry.GetHistogram("server.page_bytes");
  instruments_.asset_bytes = &registry.GetHistogram("server.asset_bytes");
  instruments_.generation_seconds =
      &registry.GetGauge("server.generation_seconds");
  instruments_.generation_energy_wh =
      &registry.GetGauge("server.generation_energy_wh");
}

const char* ServeModeName(ServeMode mode) {
  switch (mode) {
    case ServeMode::kGenerative: return "generative";
    case ServeMode::kUpscaleAssist: return "upscale-assist";
    case ServeMode::kTraditional: return "traditional";
  }
  return "?";
}

bool GenerativeServer::ServingGenerative() const {
  return CurrentServeMode() == ServeMode::kGenerative;
}

ServeMode GenerativeServer::CurrentServeMode() const {
  if (options_.policy == ServePolicy::kAlwaysTraditional) {
    return ServeMode::kTraditional;
  }
  if (options_.policy == ServePolicy::kAlwaysGenerative) {
    return ServeMode::kGenerative;
  }
  const std::uint32_t ability = connection_->negotiated_gen_ability();
  if (ability & http2::kGenAbilityFull) return ServeMode::kGenerative;
  if (ability & http2::kGenAbilityUpscaleOnly) return ServeMode::kUpscaleAssist;
  return ServeMode::kTraditional;
}

Status GenerativeServer::ProcessEvents() {
  for (const http2::Connection::Event& event : connection_->TakeEvents()) {
    using Type = http2::Connection::Event::Type;
    if (event.type == Type::kRemoteSettingsReceived) {
      instruments_.negotiations->Add();
      util::LogInfo("sww.server",
                    "client gen ability: " +
                        http2::GenAbilityToString(
                            connection_->remote_settings().gen_ability()));
      continue;
    }
    if (event.type != Type::kMessageComplete) continue;

    const http2::Stream* stream = connection_->FindStream(event.stream_id);
    if (stream == nullptr) continue;
    // Adopt the client's trace context (sww-trace header) so this request
    // span parents under the originating client.fetch — one distributed
    // trace per page fetch.  An absent/malformed header starts a fresh
    // trace, exactly like a client that does not speak sww-trace.
    obs::SpanContext remote_context;
    for (const hpack::HeaderField& field : stream->headers) {
      if (field.name == obs::kTraceHeaderName) {
        if (auto parsed = obs::ParseTraceHeader(field.value)) {
          remote_context = *parsed;
        }
        break;
      }
    }
    obs::ScopedSpan span("server.request", "core", remote_context);
    span.SetProcess("server");
    span.AddAttribute("stream_id", std::to_string(event.stream_id));
    auto request = ParseRequest(stream->headers, stream->body);
    Response response;
    ResponseKind kind = ResponseKind::kError;
    if (!request) {
      response.status = 400;
      response.SetHeader("content-type", "text/plain");
      const std::string message = request.error().ToString();
      response.body.assign(message.begin(), message.end());
    } else {
      span.AddAttribute("path", request.value().path);
      auto handled = HandleRequest(request.value(), &kind);
      if (!handled) {
        kind = ResponseKind::kError;
        response.status = 500;
        response.SetHeader("content-type", "text/plain");
        const std::string message = handled.error().ToString();
        response.body.assign(message.begin(), message.end());
      } else {
        response = std::move(handled).value();
      }
      MaybeCompress(request.value(), response);
    }
    // Single accounting site, after content coding: stats_ reflects the
    // exact entity bytes SendResponse submits.
    AccountResponse(kind, response);
    span.AddAttribute("status", std::to_string(response.status));
    span.AddAttribute(
        "mode", response.Header(kSwwModeHeader).value_or("-"));
    if (Status status = SendResponse(event.stream_id, response); !status.ok()) {
      return status;
    }
    connection_->ReleaseStream(event.stream_id);
  }
  return Status::Ok();
}

void GenerativeServer::AccountResponse(ResponseKind kind,
                                       const Response& response) {
  ++stats_.requests;
  instruments_.requests->Add();
  // Exemplar context: AccountResponse always runs inside the
  // server.request span, so the thread's current span names the
  // distributed trace this response belongs to (invalid → untraced).
  obs::Tracer& tracer = obs::Tracer::Default();
  const obs::SpanContext context = tracer.ContextOf(tracer.CurrentSpan());
  switch (kind) {
    case ResponseKind::kPage:
      stats_.page_bytes_sent += response.body.size();
      instruments_.page_bytes->Observe(static_cast<double>(response.body.size()),
                                       context.trace_id,
                                       tracer.clock().NowNanos());
      break;
    case ResponseKind::kAsset:
      stats_.asset_bytes_sent += response.body.size();
      instruments_.asset_bytes->Observe(static_cast<double>(response.body.size()));
      break;
    case ResponseKind::kTelemetry:
      // Exposition bodies are not page/asset content; only the request
      // itself is counted (in HandleRequest), keeping the byte-accounting
      // invariant below untouched.
      break;
    case ResponseKind::kNotFound:
      ++stats_.not_found;
      instruments_.not_found->Add();
      break;
    case ResponseKind::kError:
      instruments_.errors->Add();
      break;
  }
}

void GenerativeServer::RecordGeneration(double seconds, double energy_wh) {
  stats_.generation_seconds += seconds;
  stats_.generation_energy_wh += energy_wh;
  instruments_.generation_seconds->Add(seconds);
  instruments_.generation_energy_wh->Add(energy_wh);
}

Result<Response> GenerativeServer::HandleRequest(const Request& request,
                                                 ResponseKind* kind) {
  // Byte accounting happens exclusively in AccountResponse (driven by
  // *kind); this function only classifies and builds the response.
  *kind = ResponseKind::kError;
  if (request.method != "GET") {
    Response response;
    response.status = 405;
    response.SetHeader("content-type", "text/plain");
    response.SetHeader("allow", "GET");
    const std::string message = "method not allowed";
    response.body.assign(message.begin(), message.end());
    return response;
  }

  // Self-hosted telemetry plane: the server exposes its own registry over
  // the same HTTP/2 stack it serves pages on.  Routed before the content
  // store so stores cannot shadow the exposition paths.
  if (request.path == "/metrics" || request.path == "/debug/vars" ||
      request.path == "/debug/journal") {
    *kind = ResponseKind::kTelemetry;
    ++stats_.telemetry_requests;
    instruments_.telemetry_requests->Add();
    Response response;
    std::string body;
    if (request.path == "/metrics") {
      response.SetHeader("content-type", obs::kPrometheusContentType);
      body = obs::RenderPrometheusText(obs::Registry::Default().Snapshot());
    } else if (request.path == "/debug/vars") {
      response.SetHeader("content-type", "application/json");
      body = obs::RenderDebugVarsJson(
          obs::Registry::Default().Snapshot(),
          static_cast<std::int64_t>(
              obs::Tracer::Default().clock().NowNanos()));
    } else {
      // The process-wide wide-event journal, one JSON object per fetch
      // plus a journal_summary trailer.
      response.SetHeader("content-type", "application/jsonl");
      body = obs::RenderJournalJsonLines(obs::Journal::Default());
    }
    response.body.assign(body.begin(), body.end());
    return response;
  }

  if (const PageEntry* page = store_->FindPage(request.path); page != nullptr) {
    *kind = ResponseKind::kPage;
    // §7 model negotiation: the client may force materialized delivery
    // when its local model cannot meet the page's fidelity requirement.
    if (request.Header(kSwwForceHeader).value_or("") == "traditional") {
      ++stats_.pages_served_traditional;
      instruments_.pages_traditional->Add();
      return ServePageTraditional(*page);
    }
    util::Result<Response> response(Response{});
    switch (CurrentServeMode()) {
      case ServeMode::kGenerative:
        ++stats_.pages_served_generative;
        instruments_.pages_generative->Add();
        response = ServePage(*page);
        break;
      case ServeMode::kUpscaleAssist:
        ++stats_.pages_served_upscale;
        instruments_.pages_upscale->Add();
        response = ServePageUpscaleAssist(*page);
        break;
      case ServeMode::kTraditional:
        ++stats_.pages_served_traditional;
        instruments_.pages_traditional->Add();
        response = ServePageTraditional(*page);
        break;
    }
    return response;
  }

  if (const Asset* asset = store_->FindAsset(request.path); asset != nullptr) {
    *kind = ResponseKind::kAsset;
    ++stats_.assets_served;
    instruments_.assets_served->Add();
    Response response;
    response.SetHeader("content-type", asset->content_type);
    response.body = asset->bytes;
    return response;
  }
  if (auto it = ephemeral_assets_.find(request.path);
      it != ephemeral_assets_.end()) {
    *kind = ResponseKind::kAsset;
    ++stats_.assets_served;
    instruments_.assets_served->Add();
    Response response;
    response.SetHeader("content-type", it->second.content_type);
    response.body = it->second.bytes;
    return response;
  }

  *kind = ResponseKind::kNotFound;
  Response response;
  response.status = 404;
  response.SetHeader("content-type", "text/plain");
  const std::string message = "not found: " + request.path;
  response.body.assign(message.begin(), message.end());
  return response;
}

Result<Response> GenerativeServer::ServePage(const PageEntry& page) {
  // Generative form: the baseline page, prompts and all, goes out as-is.
  Response response;
  response.SetHeader("content-type", "text/html");
  response.SetHeader(std::string(kSwwModeHeader), "generative");
  response.body.assign(page.html.begin(), page.html.end());
  return response;
}

Result<Response> GenerativeServer::ServePageTraditional(const PageEntry& page) {
  // "When the client does not support generative content, the server uses
  // the prompt to generate the content before sending it to the client."
  auto document = html::ParseDocument(page.html);
  if (!document) return document.error();
  html::ExtractionResult extraction =
      html::ExtractGeneratedContent(*document.value());
  for (html::GeneratedContentSpec& spec : extraction.specs) {
    auto media = generator_.GenerateAndReplace(spec);
    if (!media) return media.error();
    RecordGeneration(media.value().seconds, media.value().energy_wh);
    if (media.value().type == html::GeneratedContentType::kImage) {
      // Serve the materialized image on its referenced path.  Root-relative
      // so the client's asset fetch matches.
      ephemeral_assets_["/" + media.value().file_path] =
          Asset{std::move(media.value().file_bytes), "image/x-portable-pixmap"};
      // Point the img src at the absolute path.
      if (spec.node != nullptr) {
        if (html::Node* img = spec.node->FindFirstByTag("img"); img != nullptr) {
          img->SetAttribute("src", "/" + media.value().file_path);
        }
      }
    }
  }
  Response response;
  response.SetHeader("content-type", "text/html");
  response.SetHeader(std::string(kSwwModeHeader), "traditional");
  const std::string serialized = document.value()->Serialize();
  response.body.assign(serialized.begin(), serialized.end());
  return response;
}

Result<Response> GenerativeServer::ServePageUpscaleAssist(const PageEntry& page) {
  // §2.2 upscale-only clients: the server still materializes, but at half
  // resolution — a ~4x byte saving on the wire — and tags each image so
  // the client restores the authored size with its (sub-second) upscaler.
  auto document = html::ParseDocument(page.html);
  if (!document) return document.error();
  html::ExtractionResult extraction =
      html::ExtractGeneratedContent(*document.value());
  for (html::GeneratedContentSpec& spec : extraction.specs) {
    if (spec.type == html::GeneratedContentType::kImage) {
      const int full_width = spec.width();
      const int full_height = spec.height();
      // Generate the reduced-resolution variant.
      html::GeneratedContentSpec reduced = spec;
      reduced.metadata.Set("width", std::max(1, full_width / 2));
      reduced.metadata.Set("height", std::max(1, full_height / 2));
      auto media = generator_.Generate(reduced);
      if (!media) return media.error();
      RecordGeneration(media.value().seconds, media.value().energy_wh);
      ephemeral_assets_["/" + media.value().file_path] =
          Asset{std::move(media.value().file_bytes), "image/x-portable-pixmap"};
      // Replace the div: <img> declares the authored size plus the
      // upscale factor the client must apply.
      html::ReplaceWithImage(*spec.node, "/" + media.value().file_path,
                             full_width, full_height, media.value().prompt);
      if (html::Node* img = spec.node->FindFirstByTag("img"); img != nullptr) {
        img->SetAttribute("data-sww-upscale", "2");
      }
    } else {
      // Text cannot be "upscaled"; the server expands it fully.
      auto media = generator_.GenerateAndReplace(spec);
      if (!media) return media.error();
      RecordGeneration(media.value().seconds, media.value().energy_wh);
    }
  }
  Response response;
  response.SetHeader("content-type", "text/html");
  response.SetHeader(std::string(kSwwModeHeader),
                     ServeModeName(ServeMode::kUpscaleAssist));
  const std::string serialized = document.value()->Serialize();
  response.body.assign(serialized.begin(), serialized.end());
  return response;
}

void GenerativeServer::MaybeCompress(const Request& request,
                                     Response& response) {
  // Apply the swz content coding when the client accepts it, the entity
  // is text, and coding actually helps.
  if (response.body.size() < 128) return;
  const std::string accept = request.Header("accept-encoding").value_or("");
  if (accept.find(compress::kContentCoding) == std::string::npos) return;
  const std::string content_type =
      response.Header("content-type").value_or("");
  if (content_type.rfind("text/", 0) != 0) return;
  util::Bytes coded = compress::SwzCompress(response.body);
  if (coded.size() >= response.body.size()) return;
  response.body = std::move(coded);
  response.SetHeader("content-encoding", compress::kContentCoding);
}

Status GenerativeServer::SendResponse(std::uint32_t stream_id,
                                      const Response& response) {
  if (Status status = connection_->SubmitHeaders(stream_id, response.ToHeaders(),
                                                 response.body.empty());
      !status.ok()) {
    return status;
  }
  if (!response.body.empty()) {
    return connection_->SubmitData(stream_id, response.body, /*end_stream=*/true);
  }
  return Status::Ok();
}

}  // namespace sww::core
