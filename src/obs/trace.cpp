#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace sww::obs {

namespace {
// Innermost-open-span stack, per thread.  Ids are tracer-global, so one
// thread interleaving two tracers is not supported (nothing in the
// repository does that).
thread_local std::vector<SpanId> t_span_stack;

// The open span with `id`, or nullptr.
template <typename Spans>
auto* FindOpen(Spans& open, SpanId id) {
  const auto it = std::find_if(open.begin(), open.end(), [id](const Span& s) {
    return s.id == id;
  });
  return it != open.end() ? &*it : nullptr;
}

std::optional<std::uint64_t> ParseHex(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}
}  // namespace

std::string FormatTraceHeader(const SpanContext& context) {
  if (!context.valid()) return "";
  char buf[64];
  // Our trace ids are 64-bit; the upper 16 hex digits of the W3C-style
  // 128-bit field are zero.
  std::snprintf(buf, sizeof(buf), "00-%016llx%016llx-%016llx-01", 0ULL,
                static_cast<unsigned long long>(context.trace_id),
                static_cast<unsigned long long>(context.span_id));
  return buf;
}

std::optional<SpanContext> ParseTraceHeader(std::string_view header) {
  // version(2) '-' trace(32) '-' span(16) '-' flags(2)
  if (header.size() != 2 + 1 + 32 + 1 + 16 + 1 + 2) return std::nullopt;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') {
    return std::nullopt;
  }
  if (!ParseHex(header.substr(0, 2))) return std::nullopt;
  const auto trace_high = ParseHex(header.substr(3, 16));
  const auto trace_low = ParseHex(header.substr(19, 16));
  const auto span = ParseHex(header.substr(36, 16));
  if (!trace_high || !trace_low || !span) return std::nullopt;
  SpanContext context;
  context.trace_id = *trace_low;  // upper 64 bits are always zero here
  context.span_id = *span;
  if (!context.valid()) return std::nullopt;
  return context;
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();  // never destroyed: see Registry
  return *tracer;
}

Tracer::Tracer() : clock_(&system_clock_) {}

void Tracer::SetClock(Clock* clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = clock != nullptr ? clock : &system_clock_;
}

Clock& Tracer::clock() {
  std::lock_guard<std::mutex> lock(mutex_);
  return *clock_;
}

SpanId Tracer::BeginSpan(std::string_view name, std::string_view category,
                         SpanId parent) {
  return Begin(name, category, parent != 0 ? parent : CurrentSpan(),
               /*trace_id=*/0, /*on_stack=*/true);
}

SpanId Tracer::BeginAsyncSpan(std::string_view name, std::string_view category,
                              SpanId parent) {
  return Begin(name, category, parent, /*trace_id=*/0, /*on_stack=*/false);
}

SpanId Tracer::BeginSpanWithContext(std::string_view name,
                                    std::string_view category,
                                    const SpanContext& remote_parent) {
  if (!remote_parent.valid()) return BeginSpan(name, category);
  return Begin(name, category, remote_parent.span_id, remote_parent.trace_id,
               /*on_stack=*/true);
}

SpanId Tracer::Begin(std::string_view name, std::string_view category,
                     SpanId parent, TraceId trace_id, bool on_stack) {
  SpanId id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) return 0;
    // Adopt a remote context's trace, else inherit the parent's.  A root
    // span, or a parent this tracer does not hold (a remote id without a
    // context, or one evicted from the finished ring), mints a fresh one.
    if (trace_id == 0) trace_id = TraceOfLocked(parent);
    Span& span = open_.emplace_back();
    span.id = id = next_id_++;
    span.parent = parent;
    span.trace_id = trace_id != 0 ? trace_id : next_trace_id_++;
    span.name = std::string(name);
    span.category = std::string(category);
    span.start_nanos = clock_->NowNanos();
  }
  if (on_stack) t_span_stack.push_back(id);
  return id;
}

void Tracer::AddAttribute(SpanId id, std::string_view key,
                          std::string_view value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (Span* span = FindOpen(open_, id)) {
    span->attributes.emplace_back(std::string(key), std::string(value));
  }
}

void Tracer::SetSpanProcess(SpanId id, std::string_view process) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (Span* span = FindOpen(open_, id)) span->process = std::string(process);
}

TraceId Tracer::TraceOfLocked(SpanId id) const {
  if (id == 0) return 0;
  if (const Span* open = FindOpen(open_, id)) return open->trace_id;
  const Span* finished =
      finished_.FindNewest([id](const Span& span) { return span.id == id; });
  return finished != nullptr ? finished->trace_id : 0;
}

SpanContext Tracer::ContextOf(SpanId id) const {
  SpanContext context;
  if (id == 0) return context;
  std::lock_guard<std::mutex> lock(mutex_);
  context.trace_id = TraceOfLocked(id);
  if (context.trace_id != 0) context.span_id = id;
  return context;
}

void Tracer::EndSpan(SpanId id) {
  if (id == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Span* span = FindOpen(open_, id)) {
      span->end_nanos = clock_->NowNanos();
      finished_.Push(std::move(*span));
      if (span != &open_.back()) *span = std::move(open_.back());
      open_.pop_back();
    }
  }
  auto stack_it = std::find(t_span_stack.begin(), t_span_stack.end(), id);
  if (stack_it != t_span_stack.end()) t_span_stack.erase(stack_it);
}

SpanId Tracer::CurrentSpan() const {
  return t_span_stack.empty() ? 0 : t_span_stack.back();
}

std::vector<Span> Tracer::FinishedSpans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_.Snapshot();
}

std::size_t Tracer::finished_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_.dropped();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  open_.clear();
  finished_.Clear();
  next_id_ = 1;
  next_trace_id_ = 1;
  t_span_stack.clear();
}

}  // namespace sww::obs
