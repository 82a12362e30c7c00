#include "http2/connection.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace sww::http2 {

using util::Bytes;
using util::BytesView;
using util::Error;
using util::Result;
using util::Status;

namespace {
constexpr std::string_view kLogComponent = "http2";
}

Connection::Connection(Role role, Options options)
    : role_(role),
      options_(std::move(options)),
      local_settings_(options_.local_settings),
      encoder_(4096),
      decoder_(local_settings_.header_table_size()),
      frame_parser_(local_settings_.max_frame_size()),
      next_stream_id_(role == Role::kClient ? 1 : 2) {
  decoder_.SetMaxTableSizeLimit(local_settings_.header_table_size());
  obs::Registry& registry = obs::Registry::Default();
  instruments_.frames_sent = &registry.GetCounter("http2.frames_sent");
  instruments_.frames_received = &registry.GetCounter("http2.frames_received");
  instruments_.bytes_sent = &registry.GetCounter("http2.bytes_sent");
  instruments_.bytes_received = &registry.GetCounter("http2.bytes_received");
  instruments_.flow_control_stalls =
      &registry.GetCounter("http2.flow_control_stalls");
  instruments_.streams_opened = &registry.GetCounter("http2.streams_opened");
  // Eagerly create the full frame-mix counter set so /metrics exposes a
  // stable series list from the first scrape (no type appears or vanishes
  // depending on which frames happened to flow yet).
  for (std::size_t t = 0; t < kFrameTypeCount; ++t) {
    const char* name = FrameTypeName(static_cast<FrameType>(t));
    instruments_.frames_sent_by_type[t] =
        &registry.GetCounter(std::string("http2.frames_sent.") + name);
    instruments_.frames_received_by_type[t] =
        &registry.GetCounter(std::string("http2.frames_received.") + name);
  }
  instruments_.stream_seconds = &registry.GetHistogram("http2.stream_seconds");
}

Connection::~Connection() {
  obs::Tracer& tracer = obs::Tracer::Default();
  for (const auto& [id, stream] : streams_) tracer.EndSpan(stream.span);
  tracer.EndSpan(settings_span_);
}

void Connection::StartHandshake() {
  if (handshake_started_) return;
  handshake_started_ = true;
  // The SETTINGS round-trip span runs from our first SETTINGS frame to the
  // peer's ACK — the negotiation window the paper's §5.2 client logs.
  settings_span_ = obs::Tracer::Default().BeginAsyncSpan(
      "http2.settings_roundtrip", "http2");
  obs::Tracer::Default().AddAttribute(
      settings_span_, "role", role_ == Role::kClient ? "client" : "server");
  if (role_ == Role::kClient) {
    output_.Append(kClientPreface);
    stats_.bytes_sent += kClientPreface.size();
    instruments_.bytes_sent->Add(kClientPreface.size());
  }
  EnqueueFrame(MakeSettingsFrame(local_settings_.NonDefaultEntries()));
}

void Connection::UpdateLocalSettings(const Settings& settings) {
  // Advertise exactly what changed relative to what the peer already holds
  // — including values returning to their defaults, which NonDefaultEntries
  // would silently omit.
  const std::vector<SettingsEntry> delta = DiffEntries(local_settings_, settings);
  local_settings_ = settings;
  frame_parser_.set_max_frame_size(local_settings_.max_frame_size());
  EnqueueFrame(MakeSettingsFrame(delta));
}

void Connection::EnqueueFrameRef(FrameType type, std::uint8_t flags,
                                 std::uint32_t stream_id, BytesView payload) {
  FrameRef ref;
  ref.header.length = static_cast<std::uint32_t>(payload.size());
  ref.header.type = type;
  ref.header.flags = flags;
  ref.header.stream_id = stream_id;
  ref.payload = payload;
  AppendFrame(ref, output_);
  const std::size_t wire_size = kFrameHeaderSize + payload.size();
  stats_.bytes_sent += wire_size;
  stats_.frames_sent.Count(type);
  instruments_.bytes_sent->Add(wire_size);
  instruments_.frames_sent->Add();
  instruments_.frames_sent_by_type[static_cast<std::size_t>(type)]->Add();
  if (tap_ != nullptr) TapFrame(obs::TapDirection::kSent, ref.header, payload);
}

void Connection::EnqueueFrame(const Frame& frame) {
  EnqueueFrameRef(frame.header.type, frame.header.flags, frame.header.stream_id,
                  frame.payload);
}

void Connection::TapFrame(obs::TapDirection direction, const FrameHeader& header,
                          BytesView payload) {
  obs::FrameRecord record;
  record.direction = direction;
  record.type = static_cast<std::uint8_t>(header.type);
  record.type_name = FrameTypeName(header.type);
  record.stream_id = header.stream_id;
  record.flags = header.flags;
  record.length = static_cast<std::uint32_t>(payload.size());
  record.timestamp_nanos = obs::Tracer::Default().clock().NowNanos();
  // SETTINGS payloads decode inline (cheap, tiny, and only with a tap
  // installed) so the frame log shows the negotiation — including the
  // GEN_ABILITY parameter the whole SWW exchange turns on.
  if (header.type == FrameType::kSettings && !header.HasFlag(kFlagAck)) {
    if (auto entries = ParseSettingsPayload(header.flags, payload); entries.ok()) {
      for (const SettingsEntry& entry : entries.value()) {
        record.details.emplace_back(SettingsIdName(entry.identifier),
                                    std::to_string(entry.value));
      }
    }
  }
  tap_->Record(std::move(record));
}

void Connection::TapHeaders(obs::TapDirection direction,
                            std::uint32_t stream_id,
                            const hpack::HeaderList& headers) {
  if (tap_ == nullptr) return;
  std::vector<std::pair<std::string, std::string>> details;
  details.reserve(headers.size());
  for (const hpack::HeaderField& field : headers) {
    details.emplace_back(field.name, field.value);
  }
  tap_->Annotate(direction, static_cast<std::uint8_t>(FrameType::kHeaders),
                 stream_id, std::move(details));
}

std::vector<Connection::Event> Connection::TakeEvents() {
  std::vector<Event> out = std::move(events_);
  events_.clear();
  return out;
}

std::uint32_t Connection::negotiated_gen_ability() const {
  if (!remote_settings_received_) return kGenAbilityNone;
  return NegotiateGenAbility(local_settings_.gen_ability(),
                             remote_settings_.gen_ability());
}

const Stream* Connection::FindStream(std::uint32_t stream_id) const {
  auto it = streams_.find(stream_id);
  return it == streams_.end() ? nullptr : &it->second;
}

Stream* Connection::FindMutableStream(std::uint32_t stream_id) {
  auto it = streams_.find(stream_id);
  return it == streams_.end() ? nullptr : &it->second;
}

void Connection::ReleaseStream(std::uint32_t stream_id) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return;
  if (!it->second.send_queue.empty()) {
    // Data is still waiting on flow-control window; FlushSendQueues reaps
    // the stream once the queue drains.
    it->second.pending_release = true;
    return;
  }
  Reap(it);
}

Connection::StreamMap::iterator Connection::Reap(StreamMap::iterator it) {
  Stream& stream = it->second;
  SetState(stream, StreamState::kClosed);
  obs::Tracer& tracer = obs::Tracer::Default();
  // Exemplar: the stream's latency bucket remembers which distributed
  // trace put it there (context read before EndSpan, while the span is
  // certainly live).
  const obs::SpanContext context = tracer.ContextOf(stream.span);
  tracer.EndSpan(stream.span);
  const std::uint64_t now = tracer.clock().NowNanos();
  instruments_.stream_seconds->Observe(
      static_cast<double>(now - stream.opened_nanos) * 1e-9, context.trace_id,
      now);
  return streams_.erase(it);
}

void Connection::SendReset(std::uint32_t stream_id, ErrorCode error) {
  EnqueueFrame(MakeRstStreamFrame(stream_id, error));
  if (auto it = streams_.find(stream_id); it != streams_.end()) Reap(it);
}

void Connection::SetState(Stream& stream, StreamState next) {
  const auto active = [](StreamState state) {
    return state != StreamState::kIdle && state != StreamState::kClosed;
  };
  if (active(stream.state)) --active_streams_;
  if (active(next)) ++active_streams_;
  stream.state = next;
}

void Connection::EndStream(Stream& stream, bool local) {
  (local ? stream.local_end : stream.remote_end) = true;
  SetState(stream, StateAfterEndStream(stream.state, local));
}

bool Connection::IsPeerInitiated(std::uint32_t stream_id) const {
  const bool odd = (stream_id % 2) == 1;
  return role_ == Role::kServer ? odd : !odd;
}

bool Connection::IsIdle(std::uint32_t stream_id) const {
  return IsPeerInitiated(stream_id) ? stream_id > last_peer_stream_id_
                                    : stream_id >= next_stream_id_;
}

Stream& Connection::OpenStream(std::uint32_t stream_id) {
  Stream& stream = streams_[stream_id];
  stream.id = stream_id;
  stream.send_window = FlowWindow(remote_settings_.initial_window_size());
  stream.recv_window = FlowWindow(local_settings_.initial_window_size());
  instruments_.streams_opened->Add();
  obs::Tracer& tracer = obs::Tracer::Default();
  stream.span =
      tracer.BeginAsyncSpan("http2.stream", "http2", tracer.CurrentSpan());
  tracer.AddAttribute(stream.span, "stream_id", std::to_string(stream_id));
  tracer.AddAttribute(stream.span, "role",
                      role_ == Role::kClient ? "client" : "server");
  stream.opened_nanos = tracer.clock().NowNanos();
  SetState(stream, StreamState::kOpen);
  return stream;
}

Status Connection::ConnectionError(ErrorCode code, const std::string& message) {
  // Rate-limited: a malformed-peer storm (fuzzing, a broken proxy) emits
  // one error per received frame; the bucket keeps the sink usable.
  SWW_LOG_RATELIMITED(util::LogLevel::kError, kLogComponent,
                      std::string(ErrorCodeName(code)) + ": " + message);
  if (!dead_) {
    EnqueueFrame(MakeGoawayFrame(last_peer_stream_id_, code, message));
    dead_ = true;
  }
  util::ErrorCode domain = util::ErrorCode::kProtocol;
  switch (code) {
    case ErrorCode::kCompressionError: domain = util::ErrorCode::kCompression; break;
    case ErrorCode::kFlowControlError: domain = util::ErrorCode::kFlowControl; break;
    case ErrorCode::kFrameSizeError: domain = util::ErrorCode::kFrameSize; break;
    default: break;
  }
  return Error(domain, message);
}

Status Connection::Receive(BytesView bytes) {
  if (dead_) return Error(util::ErrorCode::kClosed, "connection is dead");
  stats_.bytes_received += bytes.size();
  instruments_.bytes_received->Add(bytes.size());

  // A server must first consume the 24-byte client preface (RFC 9113 §3.4).
  if (role_ == Role::kServer && !preface_received_) {
    preface_buffer_.insert(preface_buffer_.end(), bytes.begin(), bytes.end());
    if (preface_buffer_.size() < kClientPreface.size()) return Status::Ok();
    const std::string_view got(reinterpret_cast<const char*>(preface_buffer_.data()),
                               kClientPreface.size());
    if (got != kClientPreface) {
      return ConnectionError(ErrorCode::kProtocolError, "bad client preface");
    }
    preface_received_ = true;
    BytesView rest(preface_buffer_.data() + kClientPreface.size(),
                   preface_buffer_.size() - kClientPreface.size());
    frame_parser_.Feed(rest);
    preface_buffer_.clear();
  } else {
    frame_parser_.Feed(bytes);
  }

  while (true) {
    auto next = frame_parser_.Next();
    if (!next) {
      return ConnectionError(ErrorCode::kFrameSizeError, next.error().message);
    }
    if (!next.value().has_value()) break;
    Frame frame = std::move(*next.value());
    stats_.frames_received.Count(frame.header.type);
    instruments_.frames_received->Add();
    const auto type_index = static_cast<std::size_t>(frame.header.type);
    if (type_index < kFrameTypeCount) {
      instruments_.frames_received_by_type[type_index]->Add();
    }
    if (tap_ != nullptr) {
      TapFrame(obs::TapDirection::kReceived, frame.header, frame.payload);
    }
    if (Status status = HandleFrame(std::move(frame)); !status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

Status Connection::HandleFrame(Frame frame) {
  // While a header block is being assembled, only CONTINUATION frames on
  // the same stream are legal (RFC 9113 §6.10).
  if (assembling_headers_ && frame.header.type != FrameType::kContinuation) {
    return ConnectionError(ErrorCode::kProtocolError,
                           "expected CONTINUATION during header block");
  }
  // The first frame from the peer must be SETTINGS (RFC 9113 §3.4).
  if (!remote_settings_received_ && frame.header.type != FrameType::kSettings) {
    return ConnectionError(ErrorCode::kProtocolError,
                           "first frame from peer was not SETTINGS");
  }

  switch (frame.header.type) {
    case FrameType::kData: return HandleData(frame);
    case FrameType::kHeaders: return HandleHeaders(frame);
    case FrameType::kPriority: return HandlePriority(frame);
    case FrameType::kRstStream: return HandleRstStream(frame);
    case FrameType::kSettings: return HandleSettings(frame);
    case FrameType::kPushPromise:
      // We never advertise push support; receiving one is a protocol error.
      return ConnectionError(ErrorCode::kProtocolError,
                             "PUSH_PROMISE received but push is disabled");
    case FrameType::kPing: return HandlePing(frame);
    case FrameType::kGoaway: return HandleGoaway(frame);
    case FrameType::kWindowUpdate: return HandleWindowUpdate(frame);
    case FrameType::kContinuation: return HandleContinuation(frame);
  }
  // Unknown frame types MUST be ignored (RFC 9113 §4.1).
  return Status::Ok();
}

Status Connection::HandleSettings(const Frame& frame) {
  if (frame.header.stream_id != 0) {
    return ConnectionError(ErrorCode::kProtocolError, "SETTINGS on stream != 0");
  }
  if (frame.header.HasFlag(kFlagAck)) {
    if (!frame.payload.empty()) {
      return ConnectionError(ErrorCode::kFrameSizeError, "SETTINGS ACK with payload");
    }
    local_settings_acked_ = true;
    events_.push_back(Event{Event::Type::kSettingsAcked, 0, ErrorCode::kNoError, 0});
    if (settings_span_ != 0) {
      obs::Tracer& tracer = obs::Tracer::Default();
      tracer.AddAttribute(settings_span_, "negotiated_gen_ability",
                          GenAbilityToString(negotiated_gen_ability()));
      tracer.EndSpan(settings_span_);
      settings_span_ = 0;
    }
    return Status::Ok();
  }
  auto entries = ParseSettingsPayload(frame);
  if (!entries) {
    return ConnectionError(ErrorCode::kFrameSizeError, entries.error().message);
  }
  const std::uint32_t old_initial_window = remote_settings_.initial_window_size();
  if (Status status = remote_settings_.ApplyAll(entries.value()); !status.ok()) {
    const ErrorCode code = status.error().code == util::ErrorCode::kFlowControl
                               ? ErrorCode::kFlowControlError
                               : ErrorCode::kProtocolError;
    return ConnectionError(code, status.error().message);
  }
  // INITIAL_WINDOW_SIZE changes adjust every stream's send window by the
  // delta (RFC 9113 §6.9.2).
  const std::int64_t delta =
      static_cast<std::int64_t>(remote_settings_.initial_window_size()) -
      static_cast<std::int64_t>(old_initial_window);
  if (delta != 0) {
    for (auto& [id, stream] : streams_) {
      (void)id;
      stream.send_window.AdjustInitial(delta);
    }
  }
  // Cap our encoder's dynamic table at the peer's advertised limit.
  encoder_.SetMaxTableSize(
      std::min<std::size_t>(remote_settings_.header_table_size(), 4096));
  remote_settings_received_ = true;
  SWW_LOG_RATELIMITED(util::LogLevel::kInfo, kLogComponent,
                      "peer settings applied; gen_ability=" +
                          GenAbilityToString(remote_settings_.gen_ability()));
  EnqueueFrameRef(FrameType::kSettings, kFlagAck, 0, {});
  events_.push_back(
      Event{Event::Type::kRemoteSettingsReceived, 0, ErrorCode::kNoError, 0});
  FlushSendQueues();
  return Status::Ok();
}

Status Connection::HandleHeaders(const Frame& frame) {
  const std::uint32_t stream_id = frame.header.stream_id;
  if (stream_id == 0) {
    return ConnectionError(ErrorCode::kProtocolError, "HEADERS on stream 0");
  }
  // No record: a new stream above the watermarks, else reaped (closed).
  Stream* stream = FindMutableStream(stream_id);
  const bool opens = stream == nullptr && IsIdle(stream_id);
  // A refused or reaped stream gets no record, only a stream error, but
  // its header block is still assembled and decoded below to keep the
  // HPACK state in sync.  A reaped stream is one either side reset, or
  // one already released; the peer may send on it before it sees our
  // RST_STREAM, and that must not cost the other streams (RFC 9113 §5.1).
  bool refused = false;
  if (opens) {
    if (!IsPeerInitiated(stream_id)) {
      return ConnectionError(ErrorCode::kProtocolError,
                             "HEADERS on unknown locally-initiated stream");
    }
    // After GOAWAY we refuse new streams gracefully.
    refused = going_away_ ||
              active_stream_count() >= local_settings_.max_concurrent_streams();
    if (refused) {
      SendReset(stream_id, ErrorCode::kRefusedStream);
    } else {
      last_peer_stream_id_ = stream_id;
    }
  } else if (stream == nullptr) {
    SendReset(stream_id, ErrorCode::kStreamClosed);
  }

  std::optional<PriorityPayload> priority;
  auto block = ExtractHeaderBlockFragment(frame, &priority);
  if (!block) {
    return ConnectionError(ErrorCode::kProtocolError, block.error().message);
  }
  if (opens) {
    if (!refused) OpenStream(stream_id);
  } else if (stream != nullptr && stream->state == StreamState::kClosed) {
    // Both ends saw END_STREAM and the record waits to be released.
    return ConnectionError(ErrorCode::kStreamClosed, "HEADERS on closed stream");
  }

  header_block_ = std::move(block).value();
  if (header_block_.size() > kMaxHeaderBlockBytes) {
    return ConnectionError(ErrorCode::kEnhanceYourCalm,
                           "header block too large");
  }
  assembling_stream_id_ = stream_id;
  assembling_end_stream_ = frame.header.HasFlag(kFlagEndStream);
  if (frame.header.HasFlag(kFlagEndHeaders)) {
    return FinishHeaderBlock();
  }
  assembling_headers_ = true;
  return Status::Ok();
}

Status Connection::HandleContinuation(const Frame& frame) {
  if (!assembling_headers_) {
    return ConnectionError(ErrorCode::kProtocolError,
                           "CONTINUATION without open header block");
  }
  if (frame.header.stream_id != assembling_stream_id_) {
    return ConnectionError(ErrorCode::kProtocolError,
                           "CONTINUATION on wrong stream");
  }
  if (header_block_.size() + frame.payload.size() > kMaxHeaderBlockBytes) {
    return ConnectionError(ErrorCode::kEnhanceYourCalm,
                           "header block too large");
  }
  header_block_.insert(header_block_.end(), frame.payload.begin(),
                       frame.payload.end());
  if (frame.header.HasFlag(kFlagEndHeaders)) {
    assembling_headers_ = false;
    return FinishHeaderBlock();
  }
  return Status::Ok();
}

Status Connection::FinishHeaderBlock() {
  assembling_headers_ = false;
  auto headers = decoder_.DecodeBlock(header_block_);
  header_block_.clear();
  if (!headers) {
    return ConnectionError(ErrorCode::kCompressionError, headers.error().message);
  }
  // Enforce SETTINGS_MAX_HEADER_LIST_SIZE (uncompressed size, RFC 9113 §6.5.2).
  std::size_t total = 0;
  for (const auto& field : headers.value()) {
    total += field.name.size() + field.value.size() + 32;
  }
  if (total > local_settings_.max_header_list_size()) {
    return ConnectionError(ErrorCode::kProtocolError, "header list too large");
  }

  // No record: the stream was refused or reaped.  The block was decoded
  // only to keep the HPACK state in sync.
  Stream* record = FindMutableStream(assembling_stream_id_);
  if (record == nullptr) return Status::Ok();
  Stream& stream = *record;
  if (!stream.saw_headers) {
    stream.headers = std::move(headers).value();
    stream.saw_headers = true;
    TapHeaders(obs::TapDirection::kReceived, assembling_stream_id_,
               stream.headers);
  } else {
    stream.trailers = std::move(headers).value();
    TapHeaders(obs::TapDirection::kReceived, assembling_stream_id_,
               stream.trailers);
  }
  events_.push_back(Event{Event::Type::kHeadersReceived, assembling_stream_id_,
                          ErrorCode::kNoError, 0});
  if (assembling_end_stream_) {
    EndStream(stream, /*local=*/false);
    events_.push_back(Event{Event::Type::kMessageComplete, assembling_stream_id_,
                            ErrorCode::kNoError, 0});
  }
  return Status::Ok();
}

Status Connection::HandleData(const Frame& frame) {
  const std::uint32_t stream_id = frame.header.stream_id;
  if (stream_id == 0) {
    return ConnectionError(ErrorCode::kProtocolError, "DATA on stream 0");
  }
  // No record: idle above the watermarks, otherwise reaped (closed).
  Stream* stream = FindMutableStream(stream_id);
  if (stream == nullptr && IsIdle(stream_id)) {
    return ConnectionError(ErrorCode::kProtocolError, "DATA on idle stream");
  }
  // The whole frame payload counts against flow control, padding included.
  const std::int64_t frame_cost = static_cast<std::int64_t>(frame.payload.size());
  connection_recv_window_.Consume(frame_cost);
  if (stream != nullptr) stream->recv_window.Consume(frame_cost);
  if (connection_recv_window_.available() < 0) {
    return ConnectionError(ErrorCode::kFlowControlError,
                           "connection receive window exceeded");
  }
  if (stream != nullptr && stream->recv_window.available() < 0) {
    return ConnectionError(ErrorCode::kFlowControlError,
                           "stream receive window exceeded");
  }
  if (stream == nullptr || !stream->CanReceiveData()) {
    // Stream half-closed(remote) or closed: STREAM_CLOSED stream error.
    // The bytes still count against, and replenish, the connection window.
    SendReset(stream_id, ErrorCode::kStreamClosed);
    MaybeReplenishWindows(nullptr, frame.payload.size());
    return Status::Ok();
  }
  auto body = ExtractDataPayload(frame);
  if (!body) {
    return ConnectionError(ErrorCode::kProtocolError, body.error().message);
  }
  stream->body.insert(stream->body.end(), body.value().begin(), body.value().end());
  if (frame.header.HasFlag(kFlagEndStream)) {
    EndStream(*stream, /*local=*/false);
    events_.push_back(
        Event{Event::Type::kMessageComplete, stream_id, ErrorCode::kNoError, 0});
  }
  MaybeReplenishWindows(stream, frame.payload.size());
  return Status::Ok();
}

void Connection::MaybeReplenishWindows(Stream* stream, std::size_t consumed) {
  connection_consumed_ += consumed;
  if (stream != nullptr) stream->unacked_recv_bytes += consumed;
  // The replenish point must stay below half the effective window, or a
  // peer that shrank INITIAL_WINDOW_SIZE below the threshold deadlocks
  // waiting for an update that never comes.
  const std::size_t stream_threshold = std::min<std::size_t>(
      kWindowUpdateThreshold,
      std::max<std::uint32_t>(1u, local_settings_.initial_window_size() / 2));
  // WINDOW_UPDATE payloads are 4 bytes; build them on the stack and go
  // straight through the zero-copy lane.
  const auto enqueue_window_update = [this](std::uint32_t on_stream,
                                            std::uint32_t increment) {
    const std::uint32_t wire = increment & 0x7fffffffu;
    const std::uint8_t payload[4] = {
        static_cast<std::uint8_t>(wire >> 24), static_cast<std::uint8_t>(wire >> 16),
        static_cast<std::uint8_t>(wire >> 8), static_cast<std::uint8_t>(wire)};
    EnqueueFrameRef(FrameType::kWindowUpdate, 0, on_stream,
                    BytesView(payload, sizeof(payload)));
  };
  if (connection_consumed_ >= kWindowUpdateThreshold) {
    enqueue_window_update(0, static_cast<std::uint32_t>(connection_consumed_));
    (void)connection_recv_window_.Widen(
        static_cast<std::int64_t>(connection_consumed_));
    connection_consumed_ = 0;
  }
  if (stream != nullptr && !stream->remote_end &&
      stream->unacked_recv_bytes >= stream_threshold) {
    enqueue_window_update(stream->id,
                          static_cast<std::uint32_t>(stream->unacked_recv_bytes));
    (void)stream->recv_window.Widen(
        static_cast<std::int64_t>(stream->unacked_recv_bytes));
    stream->unacked_recv_bytes = 0;
  }
}

Status Connection::HandlePing(const Frame& frame) {
  if (frame.header.stream_id != 0) {
    return ConnectionError(ErrorCode::kProtocolError, "PING on stream != 0");
  }
  auto opaque = ParsePingPayload(frame);
  if (!opaque) {
    return ConnectionError(ErrorCode::kFrameSizeError, opaque.error().message);
  }
  if (frame.header.HasFlag(kFlagAck)) {
    events_.push_back(
        Event{Event::Type::kPingAcked, 0, ErrorCode::kNoError, opaque.value()});
  } else {
    EnqueueFrame(MakePingFrame(opaque.value(), /*ack=*/true));
  }
  return Status::Ok();
}

Status Connection::HandleGoaway(const Frame& frame) {
  auto payload = ParseGoawayPayload(frame);
  if (!payload) {
    return ConnectionError(ErrorCode::kFrameSizeError, payload.error().message);
  }
  going_away_ = true;
  events_.push_back(Event{Event::Type::kGoawayReceived, payload.value().last_stream_id,
                          payload.value().error_code, 0});
  return Status::Ok();
}

Status Connection::HandleWindowUpdate(const Frame& frame) {
  auto increment = ParseWindowUpdatePayload(frame);
  if (!increment) {
    if (increment.error().code == util::ErrorCode::kProtocol &&
        frame.header.stream_id != 0) {
      // Zero increment on a stream is a stream error.
      SendReset(frame.header.stream_id, ErrorCode::kProtocolError);
      return Status::Ok();
    }
    return ConnectionError(ErrorCode::kProtocolError, increment.error().message);
  }
  if (frame.header.stream_id == 0) {
    if (Status status = connection_send_window_.Widen(increment.value());
        !status.ok()) {
      return ConnectionError(ErrorCode::kFlowControlError, status.error().message);
    }
  } else if (Stream* stream = FindMutableStream(frame.header.stream_id);
             stream != nullptr &&
             !stream->send_window.Widen(increment.value()).ok()) {
    SendReset(frame.header.stream_id, ErrorCode::kFlowControlError);
    return Status::Ok();
  }
  FlushSendQueues();
  return Status::Ok();
}

Status Connection::HandleRstStream(const Frame& frame) {
  if (frame.header.stream_id == 0) {
    return ConnectionError(ErrorCode::kProtocolError, "RST_STREAM on stream 0");
  }
  auto code = ParseRstStreamPayload(frame);
  if (!code) {
    return ConnectionError(ErrorCode::kFrameSizeError, code.error().message);
  }
  auto it = streams_.find(frame.header.stream_id);
  if (it == streams_.end()) {
    // RST for an idle stream is a protocol error; for a reaped (closed)
    // stream it is benign.
    if (IsIdle(frame.header.stream_id)) {
      return ConnectionError(ErrorCode::kProtocolError, "RST_STREAM on idle stream");
    }
    return Status::Ok();
  }
  events_.push_back(Event{Event::Type::kStreamReset, frame.header.stream_id,
                          code.value(), 0});
  Reap(it);
  return Status::Ok();
}

Status Connection::HandlePriority(const Frame& frame) {
  if (frame.header.stream_id == 0) {
    return ConnectionError(ErrorCode::kProtocolError, "PRIORITY on stream 0");
  }
  auto priority = ParsePriorityPayload(frame);
  if (!priority) {
    // PRIORITY with a bad length is a stream error (RFC 9113 §6.3).
    SendReset(frame.header.stream_id, ErrorCode::kFrameSizeError);
    return Status::Ok();
  }
  if (priority.value().dependency == frame.header.stream_id) {
    SendReset(frame.header.stream_id, ErrorCode::kProtocolError);
  }
  // Scheduling hints are accepted but we serve streams in submission order.
  return Status::Ok();
}

Result<std::uint32_t> Connection::SubmitRequest(const hpack::HeaderList& headers,
                                                BytesView body,
                                                bool end_stream_after_body) {
  if (role_ != Role::kClient) {
    return Error(util::ErrorCode::kInvalidArgument,
                 "SubmitRequest is client-only");
  }
  if (dead_ || going_away_) {
    return Error(util::ErrorCode::kClosed, "connection is closing");
  }
  const std::uint32_t stream_id = next_stream_id_;
  next_stream_id_ += 2;
  Stream& stream = OpenStream(stream_id);

  const bool end_stream = body.empty() && end_stream_after_body;
  EmitHeaderBlock(stream_id, headers, end_stream);
  if (end_stream) {
    EndStream(stream, /*local=*/true);
    return stream_id;
  }
  if (!body.empty()) {
    if (Status status = SubmitData(stream_id, body, end_stream_after_body);
        !status.ok()) {
      return status.error();
    }
  }
  return stream_id;
}

Status Connection::SubmitHeaders(std::uint32_t stream_id,
                                 const hpack::HeaderList& headers,
                                 bool end_stream) {
  Stream* stream = FindMutableStream(stream_id);
  if (stream == nullptr) {
    return Error(util::ErrorCode::kNotFound, "unknown stream");
  }
  if (stream->state == StreamState::kClosed) {
    return Error(util::ErrorCode::kClosed, "stream is closed");
  }
  EmitHeaderBlock(stream_id, headers, end_stream);
  if (end_stream) EndStream(*stream, /*local=*/true);
  return Status::Ok();
}

void Connection::EmitHeaderBlock(std::uint32_t stream_id,
                                 const hpack::HeaderList& headers,
                                 bool end_stream) {
  // One reusable buffer per connection: after warm-up the encode + frame
  // emission path performs no heap allocation and copies the block exactly
  // once (into the output arena).
  encode_buffer_.clear();
  encoder_.EncodeBlockInto(headers, encode_buffer_);
  const std::uint8_t stream_flags = end_stream ? kFlagEndStream : 0;
  const std::size_t max_fragment = remote_settings_.max_frame_size();
  BytesView view(encode_buffer_);
  if (view.size() <= max_fragment) {
    EnqueueFrameRef(FrameType::kHeaders,
                    static_cast<std::uint8_t>(kFlagEndHeaders | stream_flags),
                    stream_id, view);
  } else {
    EnqueueFrameRef(FrameType::kHeaders, stream_flags, stream_id,
                    view.first(max_fragment));
    view = view.subspan(max_fragment);
    while (view.size() > max_fragment) {
      EnqueueFrameRef(FrameType::kContinuation, 0, stream_id,
                      view.first(max_fragment));
      view = view.subspan(max_fragment);
    }
    EnqueueFrameRef(FrameType::kContinuation, kFlagEndHeaders, stream_id, view);
  }
  TapHeaders(obs::TapDirection::kSent, stream_id, headers);
}

Status Connection::SubmitData(std::uint32_t stream_id, BytesView data,
                              bool end_stream) {
  Stream* stream = FindMutableStream(stream_id);
  if (stream == nullptr) {
    return Error(util::ErrorCode::kNotFound, "unknown stream");
  }
  if (!stream->CanSendData()) {
    return Error(util::ErrorCode::kClosed,
                 std::string("cannot send data in state ") +
                     StreamStateName(stream->state));
  }
  Stream::PendingData pending;
  pending.data.assign(data.begin(), data.end());
  pending.end_stream = end_stream;
  stream->send_queue.push_back(std::move(pending));
  FlushStreamSendQueue(*stream);
  return Status::Ok();
}

void Connection::FlushSendQueues() {
  for (auto it = streams_.begin(); it != streams_.end();) {
    FlushStreamSendQueue(it->second);
    if (it->second.pending_release && it->second.send_queue.empty()) {
      it = Reap(it);
    } else {
      ++it;
    }
  }
}

void Connection::FlushStreamSendQueue(Stream& stream) {
  const std::size_t max_frame = remote_settings_.max_frame_size();
  while (!stream.send_queue.empty()) {
    Stream::PendingData& pending = stream.send_queue.front();
    if (pending.data.empty()) {
      // Bare END_STREAM marker.
      if (pending.end_stream) {
        EnqueueFrameRef(FrameType::kData, kFlagEndStream, stream.id, {});
        EndStream(stream, /*local=*/true);
      }
      stream.send_queue.pop_front();
      continue;
    }
    const std::int64_t window = std::min(connection_send_window_.available(),
                                         stream.send_window.available());
    if (window <= 0) {  // blocked on flow control
      ++stats_.flow_control_stalls;
      instruments_.flow_control_stalls->Add();
      return;
    }
    const std::size_t chunk_size =
        std::min({pending.data.size(), static_cast<std::size_t>(window), max_frame});
    BytesView chunk(pending.data.data(), chunk_size);
    const bool is_last_chunk = chunk_size == pending.data.size();
    const bool end_stream = is_last_chunk && pending.end_stream;
    EnqueueFrameRef(FrameType::kData, end_stream ? kFlagEndStream : 0,
                    stream.id, chunk);
    connection_send_window_.Consume(static_cast<std::int64_t>(chunk_size));
    stream.send_window.Consume(static_cast<std::int64_t>(chunk_size));
    if (is_last_chunk) {
      if (end_stream) EndStream(stream, /*local=*/true);
      stream.send_queue.pop_front();
    } else {
      pending.data.erase(pending.data.begin(),
                         pending.data.begin() + static_cast<std::ptrdiff_t>(chunk_size));
    }
  }
}

Status Connection::ResetStream(std::uint32_t stream_id, ErrorCode error) {
  if (FindStream(stream_id) == nullptr) {
    return Error(util::ErrorCode::kNotFound, "unknown stream");
  }
  SendReset(stream_id, error);
  return Status::Ok();
}

void Connection::SendPing(std::uint64_t opaque) {
  EnqueueFrame(MakePingFrame(opaque, /*ack=*/false));
}

void Connection::SendGoaway(ErrorCode error, std::string_view debug_data) {
  EnqueueFrame(MakeGoawayFrame(last_peer_stream_id_, error, debug_data));
  going_away_ = true;
}

}  // namespace sww::http2
