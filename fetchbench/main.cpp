// fetchbench — end-to-end page-fetch benchmark over the epoll reactor.
//
// One process runs one workload.  It hosts a core::ReactorHost (one
// shard) on loopback TCP and drives it with core::GenerativeClient
// through core::LoopbackSession with default client options, both as
// shipped, and prints one JSON object as its last stdout line:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":V,"unit":"u"}}}
//
// --trace 0 reports the end-to-end metrics from an untraced run.
// --trace 1 reports the per-layer metrics: an untraced phase (for the
// tracing overhead), then a traced phase whose spans come only from timing
// calls into public functions of src/ from this file.  Nothing inside src/
// is instrumented.
//
// Usage:
//   fetchbench --workload fig2_generative|bulk_asset|small_requests
//              --seed N --seconds S --trace 0|1
//              [--spans-out FILE]    write the traced phase's spans (CSV)
//              [--missing-paths K]   add K absent paths to every pass
//                                    (the benchmark's own tests use this)
//
// Every op list is generated from the seed before timing starts.  The
// timed phase runs whole passes over it, and every pass runs on its own
// freshly dialled connection, so HPACK state and the op mix are the same
// in every pass and wire bytes per op are exact for a seed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "core/content_store.hpp"
#include "core/media_generator.hpp"
#include "core/page_builder.hpp"
#include "core/reactor_host.hpp"
#include "core/server.hpp"
#include "core/session.hpp"
#include "core/verification.hpp"
#include "energy/device.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"
#include "net/reactor_server.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace sww;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

// Layer self times should sum to the traced op wall within this share; a
// run outside it says so on stderr, and the benchmark's tests fail on it.
// It attributes time and checks no program output, so it leaves `correct`
// alone.
constexpr double kLayerSumTolerance = 0.15;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Nearest-rank quantile; the op mix per pass is fixed, so the rank lands
/// in the same body-size rung on every run.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * values.size()));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  /// FetchPage (generative materialization) instead of FetchRaw.
  bool fetch_page = false;
  /// The op list of one pass.  Every client thread runs it on its own
  /// connection in a closed loop; sharing one list keeps wire bytes per op
  /// exact however many passes each thread completes.
  std::vector<std::string> pass;
  int clients = 1;
  /// Ops each client runs in set-up, before timing starts.
  std::size_t warmup_ops = 1;
  std::unique_ptr<core::ContentStore> store;

  /// The bytes a correct response to `path` carries: the stored asset, or
  /// the stored page in prompt form.  Empty for a path the store does not
  /// hold; that op must come back as a failure.
  std::optional<std::string_view> Expected(const std::string& path) const {
    if (const core::Asset* asset = store->FindAsset(path)) {
      return std::string_view(reinterpret_cast<const char*>(asset->bytes.data()),
                              asset->bytes.size());
    }
    if (const core::PageEntry* page = store->FindPage(path)) return page->html;
    return std::nullopt;
  }
};

util::Bytes SeededBytes(std::uint64_t seed, std::size_t size) {
  util::Rng rng(seed);
  util::Bytes bytes(size);
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t word = rng.NextU64();
    std::memcpy(bytes.data() + i, &word, std::min<std::size_t>(8, size - i));
  }
  return bytes;
}

void Shuffle(std::vector<std::string>& paths, util::Rng& rng) {
  for (std::size_t i = paths.size(); i > 1; --i) {
    std::swap(paths[i - 1], paths[rng.NextIndex(i)]);
  }
}

Result<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                              int missing_paths) {
  Workload w;
  w.store = std::make_unique<core::ContentStore>();
  if (name == "fig2_generative") {
    // The paper's Figure 2 page with §7 digests; one client, serial
    // generation (the client default).
    w.fetch_page = true;
    const std::string html =
        core::MakeLandscapeSearchPage(49, 256, 192, seed, /*with_digests=*/true)
            .html;
    if (Status s = w.store->AddPage("/landscape", html); !s.ok()) return s.error();
    w.pass = {"/landscape"};
  } else if (name == "bulk_asset") {
    // Unique stored assets on a x4 ladder, 64 kB to 16 MB.  The counts
    // put p50 inside the 1 MB rung and p90 inside the 4 MB rung.
    const std::vector<std::pair<std::size_t, int>> ladder = {
        {64 << 10, 2}, {256 << 10, 2}, {1 << 20, 4}, {4 << 20, 2}, {16 << 20, 1}};
    std::vector<std::string> pass;
    for (const auto& [size, count] : ladder) {
      for (int k = 0; k < count; ++k) {
        const std::string path =
            "/bulk/" + std::to_string(size >> 10) + "k-" + std::to_string(k);
        w.store->AddAsset(path, SeededBytes(util::HashCombine(seed, pass.size()), size),
                          "application/octet-stream");
        pass.push_back(path);
      }
    }
    // Latency depends on what ran before on the connection (a fresh one
    // after the 16 MB failure, or one a 4 MB fetch just used), so a pass
    // chains several seeded orders to keep that mix alike across seeds.
    util::Rng rng(seed);
    for (int order = 0; order < 4; ++order) {
      Shuffle(pass, rng);
      w.pass.insert(w.pass.end(), pass.begin(), pass.end());
    }
    w.warmup_ops = pass.size();
  } else if (name == "small_requests") {
    // 48 small resources (prompt-form pages and assets, all <= 4 kB).  The
    // resource of popularity rank r is requested round(512 / (r+1) / H)
    // times per pass (Zipf(1)), so HPACK sees repeated and new :path
    // values.  Kinds, sizes and counts are fixed by rank, so the byte mix
    // is the same for every seed; the seed picks the contents and order.
    constexpr int kResources = 48;
    constexpr double kOpsPerPass = 512;
    double harmonic = 0.0;
    for (int r = 0; r < kResources; ++r) harmonic += 1.0 / (r + 1);
    for (int r = 0; r < kResources; ++r) {
      std::string path;
      if (r % 2 == 0) {
        path = "/asset/" + std::to_string(r);
        w.store->AddAsset(path,
                          SeededBytes(util::HashCombine(seed, r), 256 + (r * 1237) % 3841),
                          "application/octet-stream");
      } else {
        path = "/page/" + std::to_string(r);
        const std::string html =
            core::MakeLandscapeSearchPage(1 + (r / 2) % 4, 256, 192,
                                          util::HashCombine(seed, r), true)
                .html;
        if (html.size() > 4096) {
          return Error(ErrorCode::kInternal, "small page over 4 kB: " + path);
        }
        if (Status s = w.store->AddPage(path, html); !s.ok()) return s.error();
      }
      const long count = std::max(1L, std::lround(kOpsPerPass / (r + 1) / harmonic));
      w.pass.insert(w.pass.end(), static_cast<std::size_t>(count), path);
    }
    util::Rng rng(seed);
    Shuffle(w.pass, rng);
    w.clients = 3;
    w.warmup_ops = w.pass.size();
  } else {
    return Error(ErrorCode::kInvalidArgument, "unknown workload: " + name);
  }
  for (int k = 0; k < missing_paths; ++k) {
    w.pass.push_back("/missing/" + std::to_string(k));
  }
  return w;
}

// ---------------------------------------------------------------------------
// Client transport.  Every call the benchmark makes into the client
// transport (dial, pump, close) is in this class, so moving the client onto
// another transport changes one place.

class ClientTransport {
 public:
  Status Dial(std::uint16_t port) {
    Close();
    auto session = core::LoopbackSession::Connect(port);
    if (!session.ok()) return session.error();
    session_ = std::move(session).value();
    return Status::Ok();
  }
  core::GenerativeClient& client() { return session_->client(); }
  core::GenerativeClient::PumpFn Pump() { return session_->Pump(); }
  void Close() {
    if (session_ != nullptr) session_->Close();
    session_.reset();
  }

 private:
  std::unique_ptr<core::LoopbackSession> session_;
};

// ---------------------------------------------------------------------------
// Spans.  Kept in memory per thread and written out when the run ends.

enum class Layer : std::uint8_t {
  kOp,           // one socket op, as the user sees it
  kPump,         // one call of the session's pump inside it
  kInmem,        // the same op replayed over core::LocalSession
  kInmemPump,    // one pump call inside that replay
  kMaterialize,  // FetchPage's client compute replayed as public calls
  kParse,
  kBatch,
  kSerialize,
  kItems,        // GenerateBatch's per-item work replayed as public calls
  kRender,
  kPpm,
  kVerify,
  kServerEvents,  // GenerativeServer::ProcessEvents on the shard thread
};
constexpr const char* kLayerNames[] = {
    "op",          "client.pump",        "http2.inmem",   "http2.inmem.pump",
    "client.materialize", "html.parse",  "core.generate_batch",
    "html.serialize", "core.batch_items", "genai.render", "genai.ppm",
    "core.verify", "server.events"};
static_assert(std::size(kLayerNames) == static_cast<std::size_t>(Layer::kServerEvents) + 1);

struct Span {
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  Layer layer = Layer::kOp;
  bool idle = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanLog {
 public:
  std::int32_t Begin(Layer layer, std::uint32_t op, std::int32_t parent = -1) {
    spans_.push_back(Span{op, parent, layer, false, NowNs(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t id, bool idle = false) {
    spans_[id].end_ns = NowNs();
    spans_[id].idle = idle;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Times one block: the span opens here and ends when the scope exits.
class SpanScope {
 public:
  SpanScope(SpanLog& log, Layer layer, std::uint32_t op, std::int32_t parent = -1)
      : log_(log), id_(log.Begin(layer, op, parent)) {}
  ~SpanScope() { log_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Self time per span: its duration minus what its children cover.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.ms();
  }
  return self;
}

// ---------------------------------------------------------------------------
// Server for the traced phase: GenerativeServer on net::ReactorServer
// through the benchmark's own ReactorApp, timing OnEvents().

class TimedServerApp final : public net::ReactorApp {
 public:
  TimedServerApp(std::unique_ptr<core::GenerativeServer> server, SpanLog* log)
      : server_(std::move(server)), log_(log) {}
  http2::Connection& connection() override { return server_->connection(); }
  void OnConnected() override { server_->StartHandshake(); }
  Status OnEvents() override {
    SpanScope span(*log_, Layer::kServerEvents, 0);
    return server_->ProcessEvents();
  }

 private:
  std::unique_ptr<core::GenerativeServer> server_;
  SpanLog* log_;  // owned by the caller, written only on the shard thread
};

net::ReactorServer::Options OneShard() {
  net::ReactorServer::Options options;
  options.shards = 1;
  return options;
}

// ---------------------------------------------------------------------------
// Ops

struct OpRecord {
  bool ok = false;
  bool wrong = false;  // answered, but not with the expected bytes
  double wall_ms = 0.0;
  std::uint64_t body_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::int64_t unverified = 0;
  std::string error;
};

std::uint64_t WireBytes(const http2::Connection& connection) {
  return connection.wire_stats().bytes_sent + connection.wire_stats().bytes_received;
}

/// Per-thread tracing context; null in untraced phases.
struct TraceCtx {
  SpanLog log;
  std::unique_ptr<core::LocalSession> inmem;
  std::unique_ptr<core::MediaGenerator> generator;
  std::uint32_t next_op = 0;
  std::vector<bool> op_ok;  // indexed by op id
  std::uint64_t frames = 0;
  std::uint64_t window_updates = 0;
  std::uint64_t inmem_stalls = 0;
  double unverified = 0.0;
  bool replay_mismatch = false;
  std::string mismatch;
};

struct Client {
  const Workload* workload = nullptr;
  const core::PageFetch* reference = nullptr;  // fig2 only
  std::uint16_t port = 0;
  ClientTransport transport;
  TraceCtx* trace = nullptr;

  std::vector<OpRecord> ops;
  double check_s = 0.0;
  double wall_s = 0.0;
  std::string fatal;
};

std::uint64_t FrameCount(const std::map<http2::FrameType, std::uint64_t>& mix,
                         std::optional<http2::FrameType> only = std::nullopt) {
  std::uint64_t total = 0;
  for (const auto& [type, n] : mix) {
    if (!only || type == *only) total += n;
  }
  return total;
}

std::uint64_t Frames(const http2::Connection& c,
                     std::optional<http2::FrameType> only = std::nullopt) {
  return FrameCount(c.wire_stats().frames_sent, only) +
         FrameCount(c.wire_stats().frames_received, only);
}

/// Replays FetchPage's client compute (the model check's parse, then
/// parse, GenerateBatch, splice, serialize) and GenerateBatch's per-item
/// work as public calls, and checks both reproduce `fetch` byte for byte.
/// A step that fails or differs flags the run incorrect.
void ReplayMaterialize(TraceCtx& t, std::uint32_t op, const core::PageFetch& fetch) {
  auto mismatch = [&t](const std::string& what) {
    t.replay_mismatch = true;
    if (t.mismatch.empty()) t.mismatch = what;
  };
  const std::string body = util::ToString(fetch.response.body);
  std::unique_ptr<html::Node> document;
  html::ExtractionResult extraction;
  util::Result<core::GeneratedBatch> batch = Error(ErrorCode::kInternal, "not run");
  {
    SpanScope root(t.log, Layer::kMaterialize, op);
    {
      SpanScope parse(t.log, Layer::kParse, op, root.id());
      auto check_doc = html::ParseDocument(body);
      if (check_doc.ok()) (void)html::ExtractGeneratedContent(*check_doc.value());
    }
    {
      SpanScope parse(t.log, Layer::kParse, op, root.id());
      auto parsed = html::ParseDocument(body);
      if (!parsed.ok()) return mismatch("replay parse failed");
      document = std::move(parsed).value();
      extraction = html::ExtractGeneratedContent(*document);
    }
    {
      SpanScope generate(t.log, Layer::kBatch, op, root.id());
      batch = t.generator->GenerateBatch(extraction.specs);
    }
    if (!batch.ok()) return mismatch("replay GenerateBatch failed");
    std::map<std::string, util::Bytes> files;
    for (std::size_t i = 0; i < batch.value().items.size(); ++i) {
      const core::GeneratedMedia& media = batch.value().items[i];
      core::MediaGenerator::Splice(extraction.specs[i], media);
      if (media.type == html::GeneratedContentType::kImage) {
        files[media.file_path] = media.file_bytes;
      }
    }
    std::string final_html;
    {
      SpanScope serialize(t.log, Layer::kSerialize, op, root.id());
      final_html = document->Serialize();
    }
    if (final_html != fetch.final_html || files != fetch.files) {
      return mismatch("replayed materialize differs from FetchPage");
    }
  }

  // Inside the batch: render, PPM encode, verify, as BuildImage does them.
  SpanScope items(t.log, Layer::kItems, op);
  const genai::DiffusionModel& diffusion = t.generator->pipeline().diffusion();
  for (std::size_t i = 0; i < extraction.specs.size(); ++i) {
    const html::GeneratedContentSpec& spec = extraction.specs[i];
    if (spec.type != html::GeneratedContentType::kImage) continue;
    const core::GeneratedMedia& media = batch.value().items[i];
    const std::string prompt = spec.prompt();
    util::Result<genai::GeneratedImage> image = Error(ErrorCode::kInternal, "not run");
    {
      SpanScope render(t.log, Layer::kRender, op, items.id());
      image = diffusion.Generate(prompt, spec.width(), spec.height(),
                                 t.generator->inference_steps(), util::Fnv1a64(prompt));
    }
    if (!image.ok()) return mismatch("replay render failed");
    std::string ppm;
    {
      SpanScope encode(t.log, Layer::kPpm, op, items.id());
      ppm = image.value().image.ToPpm();
    }
    if (util::Bytes(ppm.begin(), ppm.end()) != media.file_bytes) {
      return mismatch("replayed render differs from GenerateBatch");
    }
    const std::string digest = spec.metadata.GetString("digest");
    if (digest.empty()) continue;
    core::ContentVerification verification;
    {
      SpanScope verify(t.log, Layer::kVerify, op, items.id());
      verification = core::VerifyGeneratedContent(spec.prompt(), prompt,
                                                  core::DigestFromHex(digest),
                                                  image.value().image);
    }
    // Draft-step generation relaxes faithfulness inside BuildImage; at the
    // default step count the outcome must match.
    if (t.generator->inference_steps() >= diffusion.spec().default_steps &&
        verification.verified() != media.verification.verified()) {
      return mismatch("replayed verification differs from GenerateBatch");
    }
  }
}

/// Replays the op over the in-memory pair (no sockets), timing its pumps.
void ReplayInmem(TraceCtx& t, std::uint32_t op, const Workload& w,
                 const std::string& path) {
  core::LocalSession& session = *t.inmem;
  const auto stalls = [&session] {
    return session.client().connection().wire_stats().flow_control_stalls +
           session.server().connection().wire_stats().flow_control_stalls;
  };
  const std::uint64_t stalls_before = stalls();
  {
    SpanScope root(t.log, Layer::kInmem, op);
    const auto inner = session.Pump();
    const core::GenerativeClient::PumpFn pump = [&]() {
      SpanScope span(t.log, Layer::kInmemPump, op, root.id());
      return inner();
    };
    if (w.fetch_page) {
      (void)session.client().FetchPage(path, pump);
    } else {
      (void)session.client().FetchRaw(path, pump);
    }
  }
  t.inmem_stalls += stalls() - stalls_before;
}

OpRecord RunOp(Client& c, const std::string& path) {
  OpRecord rec;
  core::GenerativeClient& client = c.transport.client();
  const http2::Connection& connection = client.connection();
  const std::uint64_t wire_before = WireBytes(connection);
  TraceCtx* t = c.trace;
  const std::uint32_t op = t != nullptr ? t->next_op++ : 0;
  std::uint64_t frames_before = 0, updates_before = 0;
  std::int32_t root = -1;
  core::GenerativeClient::PumpFn pump = c.transport.Pump();
  if (t != nullptr) {
    frames_before = Frames(connection);
    updates_before = Frames(connection, http2::FrameType::kWindowUpdate);
    root = t->log.Begin(Layer::kOp, op);
    // A round is idle when no byte moved on the client connection.
    pump = [t, op, root, &connection, inner = std::move(pump)]() {
      const std::uint64_t before = WireBytes(connection);
      const std::int32_t id = t->log.Begin(Layer::kPump, op, root);
      Status status = inner();
      t->log.End(id, WireBytes(connection) == before);
      return status;
    };
  }

  std::optional<core::PageFetch> page;
  std::optional<core::Response> raw;
  const std::int64_t start = NowNs();
  if (c.workload->fetch_page) {
    auto result = client.FetchPage(path, pump);
    if (result.ok()) {
      page = std::move(result).value();
    } else {
      rec.error = result.error().ToString();
    }
  } else {
    auto result = client.FetchRaw(path, pump);
    if (result.ok()) {
      raw = std::move(result).value();
    } else {
      rec.error = result.error().ToString();
    }
  }
  rec.wall_ms = static_cast<double>(NowNs() - start) * 1e-6;
  if (t != nullptr) t->log.End(root);
  rec.wire_bytes = WireBytes(connection) - wire_before;
  if (t != nullptr) {
    t->frames += Frames(connection) - frames_before;
    t->window_updates +=
        Frames(connection, http2::FrameType::kWindowUpdate) - updates_before;
  }

  // Correctness: not timed as op latency, and subtracted from the wall.
  const std::int64_t check_start = NowNs();
  const std::optional<std::string_view> expected = c.workload->Expected(path);
  const core::Response* response = page ? &page->response : raw ? &*raw : nullptr;
  if (response != nullptr && response->status != 200) {
    rec.error = "status " + std::to_string(response->status);
  } else if (response != nullptr && !expected) {
    rec.wrong = true;
    rec.error = "200 for a path the store does not hold";
  } else if (page) {
    const core::PageFetch& ref = *c.reference;
    rec.unverified = static_cast<std::int64_t>(page->failed_verification_items);
    if (page->generated_items != ref.generated_items ||
        page->failed_verification_items != ref.failed_verification_items ||
        page->final_html != ref.final_html || page->files != ref.files) {
      rec.wrong = true;
      rec.error = "page differs from the set-up reference fetch";
    } else {
      rec.ok = true;
      rec.body_bytes = page->response.body.size();
    }
  } else if (raw) {
    if (raw->body.size() != expected->size() ||
        std::memcmp(raw->body.data(), expected->data(), expected->size()) != 0) {
      rec.wrong = true;
      rec.error = "body differs from the stored bytes";
    } else {
      rec.ok = true;
      rec.body_bytes = raw->body.size();
    }
  }
  c.check_s += static_cast<double>(NowNs() - check_start) * 1e-9;

  // Replays only for successful ops: a failed one stopped partway, so a
  // replay would not do the same work.
  if (t != nullptr) {
    t->op_ok.push_back(rec.ok);
    if (page) t->unverified += static_cast<double>(rec.unverified);
    if (rec.ok) ReplayInmem(*t, op, *c.workload, path);
    if (page && rec.ok) ReplayMaterialize(*t, op, *page);
  }
  return rec;
}

/// Runs whole passes until `deadline_ns` (at least one), or `max_ops` ops.
/// Each pass dials a fresh connection; a failed op drops the connection and
/// re-dials, so one failure cannot stall later streams behind an unconsumed
/// window.
void RunClient(Client& c, std::int64_t deadline_ns, std::size_t max_ops) {
  const std::int64_t start = NowNs();
  const std::vector<std::string>& pass = c.workload->pass;
  do {
    if (Status s = c.transport.Dial(c.port); !s.ok()) {
      c.fatal = "dial: " + s.ToString();
      break;
    }
    for (const std::string& path : pass) {
      if (c.ops.size() >= max_ops) break;
      OpRecord rec = RunOp(c, path);
      const bool failed = !rec.ok;
      c.ops.push_back(std::move(rec));
      if (failed) {
        if (Status s = c.transport.Dial(c.port); !s.ok()) {
          c.fatal = "re-dial: " + s.ToString();
          break;
        }
      }
    }
    c.transport.Close();
  } while (c.fatal.empty() && NowNs() < deadline_ns && c.ops.size() < max_ops);
  c.wall_s = static_cast<double>(NowNs() - start) * 1e-9 - c.check_s;
}

struct PhaseResult {
  std::vector<OpRecord> ops;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string fatal;

  std::size_t failed() const {
    return static_cast<std::size_t>(
        std::count_if(ops.begin(), ops.end(), [](const OpRecord& r) { return !r.ok; }));
  }
  bool any_wrong() const {
    return std::any_of(ops.begin(), ops.end(), [](const OpRecord& r) { return r.wrong; });
  }
  std::vector<double> latencies() const {
    std::vector<double> out;
    for (const OpRecord& r : ops) {
      if (r.ok) out.push_back(r.wall_ms);
    }
    return out;
  }
};

/// The workload's client threads, each on its own connection, all started
/// together.  Returns the merged op records and the phase's wall and CPU.
PhaseResult RunPhase(const Workload& w, const core::PageFetch* reference,
                     std::uint16_t port, double seconds,
                     std::vector<std::unique_ptr<TraceCtx>>* traces,
                     std::size_t max_ops = SIZE_MAX) {
  std::vector<Client> clients(static_cast<std::size_t>(w.clients));
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].workload = &w;
    clients[i].reference = reference;
    clients[i].port = port;
    clients[i].trace = traces != nullptr ? (*traces)[i].get() : nullptr;
  }
  const double cpu_before = CpuSeconds();
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  if (clients.size() == 1) {
    RunClient(clients[0], deadline, max_ops);
  } else {
    std::vector<std::thread> threads;
    for (Client& c : clients) {
      threads.emplace_back([&c, deadline, max_ops] { RunClient(c, deadline, max_ops); });
    }
    for (std::thread& t : threads) t.join();
  }
  PhaseResult result;
  result.cpu_s = CpuSeconds() - cpu_before;
  for (Client& c : clients) {
    result.wall_s = std::max(result.wall_s, c.wall_s);
    if (result.fatal.empty()) result.fatal = c.fatal;
    for (OpRecord& r : c.ops) result.ops.push_back(std::move(r));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Set-up: store from the seed, server, reference fetch, warm-up pass.

struct Rig {
  Workload workload;
  std::unique_ptr<core::ReactorHost> host;
  core::PageFetch reference;  // fig2: the page every op must reproduce
  double setup_s = 0.0;
};

Result<std::unique_ptr<Rig>> SetUp(const std::string& name, std::uint64_t seed,
                                   int missing_paths) {
  const std::int64_t start = NowNs();
  auto rig = std::make_unique<Rig>();
  auto workload = MakeWorkload(name, seed, missing_paths);
  if (!workload.ok()) return workload.error();
  rig->workload = std::move(workload).value();
  core::ReactorHost::Options options;
  options.server = OneShard();
  auto host = core::ReactorHost::Start(rig->workload.store.get(), options);
  if (!host.ok()) return host.error();
  rig->host = std::move(host).value();
  if (rig->workload.fetch_page) {
    ClientTransport transport;
    if (Status s = transport.Dial(rig->host->port()); !s.ok()) return s.error();
    auto fetch = transport.client().FetchPage(rig->workload.pass[0],
                                              transport.Pump());
    transport.Close();
    if (!fetch.ok()) return fetch.error();
    rig->reference = std::move(fetch).value();
    if (rig->reference.generated_items != 49 || rig->reference.mode != "generative") {
      return Error(ErrorCode::kInternal,
                   "reference fetch: " +
                       std::to_string(rig->reference.generated_items) +
                       " items in mode '" + rig->reference.mode + "'");
    }
  }
  // Warm-up, checked like timed ops.
  PhaseResult warm = RunPhase(rig->workload, &rig->reference, rig->host->port(), 0.0,
                              nullptr, rig->workload.warmup_ops);
  if (!warm.fatal.empty()) return Error(ErrorCode::kIo, warm.fatal);
  if (warm.any_wrong()) return Error(ErrorCode::kInternal, "warm-up op returned wrong bytes");
  rig->setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return rig;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "" : ", ") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::vector<Metric> EndToEnd(const PhaseResult& phase, double setup_s) {
  const std::vector<double> latencies = phase.latencies();
  const double attempted = static_cast<double>(std::max<std::size_t>(phase.ops.size(), 1));
  // A failed fetch stops partway, after as many bytes as the pump cap let
  // through; only successful ops have a wire size fixed by the seed.
  double body = 0, wire = 0;
  for (const OpRecord& r : phase.ops) {
    body += static_cast<double>(r.body_bytes);
    if (r.ok) wire += static_cast<double>(r.wire_bytes);
  }
  const double succeeded = static_cast<double>(std::max<std::size_t>(latencies.size(), 1));
  const double wall = std::max(phase.wall_s, 1e-9);
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Quantile(latencies, 0.5), "ms"},
      {"latency_p90_ms", Quantile(latencies, 0.9), "ms"},
      {"ops_per_s", static_cast<double>(latencies.size()) / wall, "1/s"},
      {"goodput_MBps", body / 1e6 / wall, "MB/s"},
      {"cpu_ms_per_op", phase.cpu_s * 1e3 / attempted, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"wire_bytes_per_op", wire / succeeded, "B"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2025;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  int missing_paths = 0;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return std::nullopt;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else if (key == "--missing-paths") {
      args.missing_paths = std::atoi(value.c_str());
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0) ||
      args.missing_paths < 0) {
    return std::nullopt;
  }
  return args;
}

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Default().GetCounter(name).value();
}

/// The traced phase: the benchmark's own server app, per-client in-memory
/// pairs for replays, and span-derived per-layer metrics.
Result<std::vector<Metric>> TracedPhase(Rig& rig, const Args& args,
                                        double untraced_p50, bool* correct,
                                        std::size_t* attempted, std::size_t* failed) {
  rig.host->Shutdown();
  const Workload& w = rig.workload;
  SpanLog server_log;
  auto factory = [&w, &server_log]() -> std::unique_ptr<net::ReactorApp> {
    auto server = core::GenerativeServer::Create(w.store.get(), {});
    if (!server.ok()) return nullptr;
    return std::make_unique<TimedServerApp>(std::move(server).value(), &server_log);
  };
  auto server = net::ReactorServer::Start(factory, OneShard());
  if (!server.ok()) return server.error();

  std::vector<std::unique_ptr<TraceCtx>> traces;
  for (int i = 0; i < w.clients; ++i) {
    auto t = std::make_unique<TraceCtx>();
    auto session = core::LocalSession::Start(w.store.get(), {});
    if (!session.ok()) return session.error();
    t->inmem = std::move(session).value();
    auto generator = core::MediaGenerator::Create(energy::Laptop(), {});
    if (!generator.ok()) return generator.error();
    t->generator = std::make_unique<core::MediaGenerator>(std::move(generator).value());
    traces.push_back(std::move(t));
  }
  const char* kReactorCounters[] = {"net.reactor.wakeups", "net.reactor.writev_calls",
                                    "net.reactor.partial_writes",
                                    "net.reactor.read_pauses", "http2.flow_control_stalls"};
  std::map<std::string, std::uint64_t> before;
  for (const char* name : kReactorCounters) before[name] = CounterValue(name);

  PhaseResult phase = RunPhase(w, &rig.reference, server.value()->port(),
                               args.seconds / 2, &traces);
  server.value()->Shutdown();  // joins the shard: server_log is ours again
  if (!phase.fatal.empty()) return Error(ErrorCode::kIo, phase.fatal);

  std::map<std::string, double> delta;
  for (const char* name : kReactorCounters) {
    delta[name] = static_cast<double>(CounterValue(name) - before[name]);
  }

  // Per-layer totals from the span trees.  Replay-based figures (the
  // in-memory op, the layer sum) cover the successful ops, which are the
  // only ones replayed.
  std::map<Layer, double> dur_ms;
  double op_self = 0, pump_rounds = 0, idle_rounds = 0;
  double ok_wall = 0, ok_pump = 0, inmem_self = 0, ok_ops = 0;
  double frames = 0, window_updates = 0, inmem_stalls = 0, unverified = 0;
  for (const auto& t : traces) {
    const std::vector<Span>& spans = t->log.spans();
    const std::vector<double> self = SelfTimesMs(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const bool ok = t->op_ok[s.op];
      dur_ms[s.layer] += s.ms();
      switch (s.layer) {
        case Layer::kOp:
          op_self += self[i];
          if (ok) {
            ok_wall += s.ms();
            ok_ops += 1;
          }
          break;
        case Layer::kPump:
          pump_rounds += 1;
          idle_rounds += s.idle ? 1 : 0;
          if (ok) ok_pump += s.ms();
          break;
        case Layer::kInmem:
          inmem_self += self[i];
          break;
        default:
          break;
      }
    }
    frames += static_cast<double>(t->frames);
    window_updates += static_cast<double>(t->window_updates);
    inmem_stalls += static_cast<double>(t->inmem_stalls);
    unverified += t->unverified;
    if (t->replay_mismatch) {
      *correct = false;
      std::fprintf(stderr, "fetchbench: %s\n", t->mismatch.c_str());
    }
  }
  double server_ms = 0;
  for (const Span& s : server_log.spans()) server_ms += s.ms();

  const double ops = static_cast<double>(std::max<std::size_t>(phase.ops.size(), 1));
  ok_ops = std::max(ok_ops, 1.0);
  // Attribution of one op: the socket pump (transport, server and
  // protocol, measured in the op) plus the client compute measured on the
  // in-memory replay, which the materialize replay splits further into
  // html, core and genai.
  const double layer_sum_ratio = ok_wall > 0 ? (ok_pump + inmem_self) / ok_wall : 0.0;
  if (std::fabs(layer_sum_ratio - 1.0) > kLayerSumTolerance) {
    std::fprintf(stderr,
                 "fetchbench: warning: layer self times sum to %.3f of the op wall "
                 "(tolerance %.2f)\n",
                 layer_sum_ratio, kLayerSumTolerance);
  }
  const std::vector<double> traced_latencies = phase.latencies();
  const double traced_p50 = Median(traced_latencies);

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << "thread,op,span,parent,layer,idle,start_ns,end_ns\n";
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const std::vector<Span>& spans = traces[t]->log.spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << t << ',' << s.op << ',' << i << ',' << s.parent << ','
            << kLayerNames[static_cast<int>(s.layer)] << ',' << s.idle << ','
            << s.start_ns << ',' << s.end_ns << '\n';
      }
    }
    for (std::size_t i = 0; i < server_log.spans().size(); ++i) {
      const Span& s = server_log.spans()[i];
      out << "server,," << i << ",-1," << kLayerNames[static_cast<int>(s.layer)]
          << ",0," << s.start_ns << ',' << s.end_ns << '\n';
    }
  }

  *attempted += phase.ops.size();
  *failed += phase.failed();
  if (phase.any_wrong()) *correct = false;
  return std::vector<Metric>{
      {"client.pump_ms_per_op", dur_ms[Layer::kPump] / ops, "ms"},
      {"client.pump_rounds_per_op", pump_rounds / ops, "count"},
      {"client.idle_rounds_per_op", idle_rounds / ops, "count"},
      {"client.compute_ms_per_op", op_self / ops, "ms"},
      {"html.parse_ms_per_op", dur_ms[Layer::kParse] / ok_ops, "ms"},
      {"core.generate_batch_ms_per_op", dur_ms[Layer::kBatch] / ok_ops, "ms"},
      {"html.serialize_ms_per_op", dur_ms[Layer::kSerialize] / ok_ops, "ms"},
      {"genai.render_ms_per_op", dur_ms[Layer::kRender] / ok_ops, "ms"},
      {"genai.ppm_ms_per_op", dur_ms[Layer::kPpm] / ok_ops, "ms"},
      {"core.verify_ms_per_op", dur_ms[Layer::kVerify] / ok_ops, "ms"},
      {"core.unverified_items_per_op", unverified / ops, "count"},
      {"server.events_ms_per_op", server_ms / ops, "ms"},
      {"http2.inmem_ms_per_op", dur_ms[Layer::kInmem] / ok_ops, "ms"},
      {"http2.frames_per_op", frames / ops, "count"},
      {"http2.window_updates_per_op", window_updates / ops, "count"},
      {"http2.flow_control_stalls_per_op",
       (delta["http2.flow_control_stalls"] - inmem_stalls) / ops, "count"},
      {"net.socket_ms_per_op", (ok_wall - dur_ms[Layer::kInmem]) / ok_ops, "ms"},
      {"net.reactor.wakeups_per_op", delta["net.reactor.wakeups"] / ops, "count"},
      {"net.reactor.writev_calls_per_op", delta["net.reactor.writev_calls"] / ops,
       "count"},
      {"net.reactor.partial_writes_per_op", delta["net.reactor.partial_writes"] / ops,
       "count"},
      {"net.reactor.read_pauses_per_op", delta["net.reactor.read_pauses"] / ops, "count"},
      {"trace.layer_sum_ratio", layer_sum_ratio, "ratio"},
      {"trace.overhead_pct",
       untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100.0 : 0.0,
       "%"},
      {"trace.traced_ops", static_cast<double>(phase.ops.size()), "count"},
  };
}

int Main(int argc, char** argv) {
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: fetchbench --workload fig2_generative|bulk_asset|small_requests "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE] "
                 "[--missing-paths K]\n");
    return 2;
  }
  const Args& args = *parsed;
  // The in-program tracer keeps every finished span (its store has no
  // bound) and its ids change sww-trace header bytes from op to op; the
  // benchmark measures with it off and records its own spans instead.
  obs::Tracer::Default().SetEnabled(false);

  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // tear the previous set-up down first
    auto next = SetUp(args.workload, args.seed, args.missing_paths);
    if (!next.ok()) {
      std::fprintf(stderr, "fetchbench: set-up failed: %s\n",
                   next.error().ToString().c_str());
      return 1;
    }
    rig = std::move(next).value();
    setups.push_back(rig->setup_s);
  }

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  PhaseResult phase = RunPhase(rig->workload, &rig->reference, rig->host->port(),
                               untraced_seconds, nullptr);
  if (!phase.fatal.empty()) {
    std::fprintf(stderr, "fetchbench: %s\n", phase.fatal.c_str());
    return 1;
  }
  bool correct = !phase.any_wrong();
  std::size_t attempted = phase.ops.size();
  std::size_t failed = phase.failed();
  std::map<std::string, std::size_t> errors;
  for (const OpRecord& r : phase.ops) {
    if (!r.ok) ++errors[r.error];
  }
  for (const auto& [error, n] : errors) {
    std::fprintf(stderr, "fetchbench: %zu op(s) failed: %s\n", n, error.c_str());
  }
  std::fprintf(stderr, "fetchbench: %s seed %llu: %zu ops, %zu failed, %zu latency samples\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               attempted, failed, phase.latencies().size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(phase, Median(setups));
  } else {
    auto layers = TracedPhase(*rig, args, Median(phase.latencies()), &correct,
                              &attempted, &failed);
    if (!layers.ok()) {
      std::fprintf(stderr, "fetchbench: traced phase failed: %s\n",
                   layers.error().ToString().c_str());
      return 1;
    }
    metrics = std::move(layers).value();
  }
  rig->host->Shutdown();
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
