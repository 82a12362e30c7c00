// trace.hpp — span tracing across the SWW request path.
//
// A span is a named interval with a parent link and string attributes:
// the SETTINGS round-trip, one HTTP/2 stream's lifetime, one server
// request, one client page fetch, one generated asset.  Spans nest
// automatically: BeginSpan parents to the innermost open span on the
// calling thread, so a page fetch span ends up owning its request,
// stream, and per-asset generation children without any plumbing.
//
// Time comes from an injectable obs::Clock (clock.hpp); under a
// ManualClock the tracer is fully deterministic, and simulated
// generation costs become span durations via Clock::AdvanceSimulated.
// Export finished spans with obs/export.hpp (Chrome trace_event JSON,
// viewable in chrome://tracing or Perfetto).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "obs/ring.hpp"

namespace sww::obs {

/// Identifies one span within a Tracer.  0 is "no span".
using SpanId = std::uint64_t;

/// Identifies one distributed trace (a page fetch end to end).  Root spans
/// mint a fresh trace id; children inherit their parent's, including
/// across the sww-trace request header.  0 is "no trace".
using TraceId = std::uint64_t;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  TraceId trace_id = 0;
  std::string name;
  std::string category;
  /// Role/process track for the exporter ("client", "server", "edge",
  /// "origin").  Empty means: inherit the nearest labeled ancestor's, or
  /// the export call's default process.
  std::string process;
  std::uint64_t start_nanos = 0;
  std::uint64_t end_nanos = 0;
  std::vector<std::pair<std::string, std::string>> attributes;

  double DurationSeconds() const {
    return static_cast<double>(end_nanos - start_nanos) * 1e-9;
  }
};

/// What crosses a process boundary: enough to parent a remote span.
struct SpanContext {
  TraceId trace_id = 0;
  SpanId span_id = 0;

  bool valid() const { return trace_id != 0 && span_id != 0; }
};

/// Name of the request header carrying the trace context (client → server,
/// user → edge): the SWW analogue of W3C traceparent.
inline constexpr std::string_view kTraceHeaderName = "sww-trace";

/// W3C-traceparent-like encoding: "00-<trace id, 32 hex>-<parent span id,
/// 16 hex>-01".  Returns "" for an invalid context.
std::string FormatTraceHeader(const SpanContext& context);

/// Parse the header back; nullopt on any malformed input (a peer that does
/// not speak sww-trace simply starts a fresh trace).
std::optional<SpanContext> ParseTraceHeader(std::string_view header);

class Tracer {
 public:
  /// The process-wide tracer every component records into by default.
  static Tracer& Default();

  /// Finished spans kept before the oldest are overwritten (the journal's
  /// capacity: a traced page fetch is a few dozen spans).
  static constexpr std::size_t kFinishedCapacity = 8192;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Install a time source (not owned; must outlive the tracer or be
  /// replaced first).  nullptr restores the built-in wall clock.
  void SetClock(Clock* clock);
  Clock& clock();

  /// Tracing is on by default; when disabled, Begin/End are no-ops and
  /// BeginSpan returns 0 (every operation accepts id 0 harmlessly).
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Open a span parented to the calling thread's innermost open span
  /// (or `parent`, if nonzero).  Pushes onto the thread's span stack.
  SpanId BeginSpan(std::string_view name, std::string_view category = "",
                   SpanId parent = 0);
  /// Open a span without touching the thread stack — for intervals that
  /// outlive the call frame (a stream's lifetime, a SETTINGS round-trip).
  SpanId BeginAsyncSpan(std::string_view name, std::string_view category = "",
                        SpanId parent = 0);
  /// Open a span whose parent arrived from another role via the sww-trace
  /// header: the span adopts the remote trace id and parent span id, so
  /// the whole page fetch exports as ONE tree.  Pushes onto the thread's
  /// span stack (children nest under it as usual).  An invalid context
  /// degrades to a plain BeginSpan.
  SpanId BeginSpanWithContext(std::string_view name, std::string_view category,
                              const SpanContext& remote_parent);
  void AddAttribute(SpanId id, std::string_view key, std::string_view value);
  /// Label the span's process/role track for the exporter.
  void SetSpanProcess(SpanId id, std::string_view process);
  /// The propagation context of a span (for the sww-trace header); empty
  /// for a span this tracer no longer holds.
  SpanContext ContextOf(SpanId id) const;
  /// Close the span; stamps the end time and pops it from the thread
  /// stack if present.  Ending an already-finished or unknown id is a
  /// no-op.
  void EndSpan(SpanId id);

  /// The innermost open span on the calling thread (0 when none).
  SpanId CurrentSpan() const;

  /// The finished spans still held, in finish order.
  std::vector<Span> FinishedSpans() const;
  std::size_t finished_count() const;
  /// Finished spans overwritten in the bounded store since the last Clear.
  std::uint64_t dropped() const;

  /// Drop every span (open spans too) and reset the id sequence; the
  /// clock and enabled flag stay.
  void Clear();

 private:
  /// Open a span; `trace_id` 0 inherits the parent's trace.  Pushes onto
  /// the thread's span stack when `on_stack`.
  SpanId Begin(std::string_view name, std::string_view category,
               SpanId parent, TraceId trace_id, bool on_stack);
  /// Trace of an open or still-held finished span; 0 when unknown.
  TraceId TraceOfLocked(SpanId id) const;

  mutable std::mutex mutex_;
  bool enabled_ = true;
  SystemClock system_clock_;
  Clock* clock_;  // never null
  SpanId next_id_ = 1;
  TraceId next_trace_id_ = 1;
  std::vector<Span> open_;  // unfinished spans, unordered
  Ring<Span> finished_{kFinishedCapacity};  // finish order
};

/// RAII span on the default tracer: opens on construction (auto-parented
/// to the enclosing ScopedSpan on this thread), ends on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view category = "")
      : tracer_(&Tracer::Default()),
        id_(tracer_->BeginSpan(name, category)) {}
  /// Adopt a remote parent (sww-trace header); invalid contexts degrade to
  /// the plain auto-parented form.
  ScopedSpan(std::string_view name, std::string_view category,
             const SpanContext& remote_parent)
      : tracer_(&Tracer::Default()),
        id_(tracer_->BeginSpanWithContext(name, category, remote_parent)) {}
  ~ScopedSpan() { tracer_->EndSpan(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }
  void AddAttribute(std::string_view key, std::string_view value) {
    tracer_->AddAttribute(id_, key, value);
  }
  void SetProcess(std::string_view process) {
    tracer_->SetSpanProcess(id_, process);
  }
  SpanContext context() const { return tracer_->ContextOf(id_); }

 private:
  Tracer* tracer_;
  SpanId id_;
};

}  // namespace sww::obs
