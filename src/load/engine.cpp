#include "load/engine.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "cdn/edge.hpp"
#include "core/page_builder.hpp"
#include "core/session.hpp"
#include "energy/carbon.hpp"
#include "energy/device.hpp"
#include "energy/network.hpp"
#include "genai/model_specs.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace sww::load {

using util::Result;

namespace {

constexpr double kNanosPerSecond = 1e9;
/// Calibrated overheads never go below this: a zero service time would
/// make every server slot interchangeable and queueing vacuous.
constexpr double kMinOverheadSeconds = 1e-4;

std::uint64_t ToNanos(double seconds) {
  return seconds <= 0.0
             ? 0
             : static_cast<std::uint64_t>(seconds * kNanosPerSecond);
}

/// Everything arrival i needs, derived statelessly in the precompute
/// pass.  No field depends on any other arrival.
struct Arrival {
  double arrival_seconds = 0.0;
  std::uint32_t class_index = 0;
  std::uint32_t item_index = 0;
  std::uint64_t user = 0;
  std::uint64_t trace_id = 0;
  double net_jitter = 1.0;
  bool error = false;
};

const energy::DeviceProfile& DeviceFor(const ClientClass& klass) {
  return klass.device == "workstation" ? energy::Workstation()
                                       : energy::Laptop();
}

cdn::EdgeMode EdgeModeFor(ServeMode mode) {
  switch (mode) {
    case ServeMode::kTraditional: return cdn::EdgeMode::kContentMode;
    case ServeMode::kEdgeGenerative: return cdn::EdgeMode::kPromptMode;
    case ServeMode::kClientGenerative:
      return cdn::EdgeMode::kPromptPassthrough;
  }
  return cdn::EdgeMode::kContentMode;
}

double ClientGenerationSeconds(const cdn::CatalogItem& item,
                               const energy::DeviceProfile& device,
                               const genai::ImageModelSpec& image_model,
                               const genai::TextModelSpec& text_model) {
  if (item.is_image) {
    return energy::ImageGenerationSeconds(device, image_model,
                                          image_model.default_steps,
                                          item.width, item.height);
  }
  return energy::TextGenerationSeconds(device, text_model, item.words);
}

double ClientGenerationEnergyWh(const cdn::CatalogItem& item,
                                const energy::DeviceProfile& device,
                                const genai::ImageModelSpec& image_model,
                                const genai::TextModelSpec& text_model) {
  if (item.is_image) {
    return energy::ImageGenerationEnergyWh(device, image_model,
                                           image_model.default_steps,
                                           item.width, item.height);
  }
  return energy::TextGenerationEnergyWh(device, text_model, item.words);
}

/// Wire time of one response: two round trips (request + response,
/// with a retransmission penalty proportional to the loss class) plus
/// the serialization delay of the payload, inflated by 1/(1-loss) for
/// retransmitted segments, all wobbled by the per-request jitter draw.
double NetworkSeconds(const ClientClass& klass, std::uint64_t bytes,
                      double jitter) {
  const double rtt_s = klass.rtt_ms * 1e-3;
  const double handshake = 2.0 * rtt_s * (1.0 + 4.0 * klass.loss_rate);
  const double transfer = static_cast<double>(bytes) * 8.0 /
                          (klass.bandwidth_mbps * 1e6) /
                          (1.0 - klass.loss_rate);
  return (handshake + transfer) * jitter;
}

/// Service may not *start* inside a stall window (sorted by start):
/// queued arrivals resume when the window closes.
double PushOutOfStalls(double t, const std::vector<StallWindow>& stalls) {
  for (const StallWindow& stall : stalls) {
    if (t >= stall.start_seconds &&
        t < stall.start_seconds + stall.duration_seconds) {
      t = stall.start_seconds + stall.duration_seconds;
    }
  }
  return t;
}

}  // namespace

Result<double> CalibrateServerOverheadSeconds() {
  // One real page fetch through the in-process HTTP/2 stack on a manual
  // clock: total elapsed minus the modeled generation/upscale makespan is
  // the server+protocol cost a simulated request should carry.
  obs::Tracer& tracer = obs::Tracer::Default();
  obs::ManualClock clock;
  tracer.SetClock(&clock);
  core::ContentStore store;
  if (util::Status status = store.AddPage("/", core::MakeGoldfishPage());
      !status.ok()) {
    tracer.SetClock(nullptr);
    return status.error();
  }
  auto session = core::LocalSession::Start(&store, {});
  if (!session.ok()) {
    tracer.SetClock(nullptr);
    return session.error();
  }
  const std::uint64_t before = clock.NowNanos();
  auto fetch = session.value()->FetchPage("/");
  const std::uint64_t after = clock.NowNanos();
  tracer.SetClock(nullptr);
  if (!fetch.ok()) return fetch.error();
  const double elapsed =
      static_cast<double>(after - before) / kNanosPerSecond;
  const double modeled = fetch.value().generation_seconds +
                         fetch.value().upscale_seconds;
  const double overhead = elapsed > modeled ? elapsed - modeled : 0.0;
  return std::max(overhead, kMinOverheadSeconds);
}

Result<ScenarioResult> RunScenario(const ScenarioSpec& spec,
                                   const EngineOptions& options) {
  if (util::Status status = ValidateScenarioSpec(spec); !status.ok()) {
    return status.error();
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::Shared();
  obs::Registry& registry =
      options.registry != nullptr ? *options.registry
                                  : obs::Registry::Default();
  obs::Journal& journal =
      options.journal != nullptr ? *options.journal : obs::Journal::Default();

  auto image_model = genai::FindImageModel(genai::kSd3Medium);
  auto text_model = genai::FindTextModel(genai::kDeepseek8b);
  if (!image_model.ok()) return image_model.error();
  if (!text_model.ok()) return text_model.error();

  ScenarioResult result;
  result.spec = spec;
  result.duration_seconds = spec.duration_seconds;
  result.server_overhead_seconds = spec.server_overhead_seconds;
  if (spec.calibrate_overhead) {
    auto calibrated = CalibrateServerOverheadSeconds();
    if (!calibrated.ok()) return calibrated.error();
    result.server_overhead_seconds = calibrated.value();
  }

  const std::uint64_t journal_total_before = journal.total_recorded();
  const std::uint64_t journal_dropped_before = journal.dropped();

  // ---- precompute: the stateless per-arrival population ----------------
  const ArrivalSchedule schedule(spec.arrivals, spec.duration_seconds,
                                 spec.seed);
  const cdn::Catalog catalog = cdn::Catalog::MakeSynthetic(spec.catalog);
  std::vector<double> class_weights;
  class_weights.reserve(spec.classes.size());
  for (const ClientClass& klass : spec.classes) {
    class_weights.push_back(klass.weight);
  }
  const std::vector<double> class_cdf = CumulativeWeights(class_weights);

  std::vector<Arrival> arrivals(schedule.count());
  pool.ParallelFor(
      static_cast<std::int64_t>(arrivals.size()),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t signed_i = begin; signed_i < end; ++signed_i) {
          const std::uint64_t i = static_cast<std::uint64_t>(signed_i);
          Arrival& a = arrivals[i];
          a.arrival_seconds = schedule.ArrivalSeconds(i);
          a.class_index = static_cast<std::uint32_t>(
              WeightedChoice(class_cdf, Draw(spec.seed, i, DrawStream::kClass)));
          a.item_index = static_cast<std::uint32_t>(
              catalog.SampleRequestUniform(
                  Draw(spec.seed, i, DrawStream::kPage)));
          a.user = DrawU64(spec.seed, i, DrawStream::kUser) % spec.population;
          a.trace_id = DrawU64(spec.seed, i, DrawStream::kTrace);
          if (a.trace_id == 0) a.trace_id = 1;  // 0 means "untraced"
          a.net_jitter =
              0.9 + 0.2 * Draw(spec.seed, i, DrawStream::kNetworkJitter);
          a.error = Draw(spec.seed, i, DrawStream::kError) <
                    spec.classes[a.class_index].error_rate;
        }
      });

  std::vector<StallWindow> stalls = spec.stalls;
  std::sort(stalls.begin(), stalls.end(),
            [](const StallWindow& a, const StallWindow& b) {
              return a.start_seconds < b.start_seconds;
            });

  // ---- simulate: sequential discrete-event pass ------------------------
  // Per-run private histograms keep results isolated; the same
  // observations mirror into the registry series for /metrics.
  obs::Histogram latency_hist;
  obs::Histogram queue_hist;
  obs::Histogram& registry_latency =
      registry.GetHistogram("load." + spec.name + ".latency");
  obs::Histogram& registry_queue =
      registry.GetHistogram("load." + spec.name + ".queue_wait");
  obs::Counter& requests_counter =
      registry.GetCounter("load." + spec.name + ".requests");
  obs::Counter& errors_counter =
      registry.GetCounter("load." + spec.name + ".errors");
  obs::Counter& cache_hits_counter =
      registry.GetCounter("load." + spec.name + ".client_cache_hits");
  obs::Counter& delivered_counter =
      registry.GetCounter("load." + spec.name + ".delivered_bytes");
  obs::Gauge& energy_gauge =
      registry.GetGauge("load." + spec.name + ".energy_wh");
  obs::Gauge& goodput_gauge =
      registry.GetGauge("load." + spec.name + ".goodput_rps");

  // The edge journal records carry tracer-clock timestamps; drive that
  // clock along the virtual service timeline so records are deterministic
  // and monotone.
  obs::Tracer& tracer = obs::Tracer::Default();
  obs::ManualClock virtual_clock;
  tracer.SetClock(&virtual_clock);

  cdn::EdgeNode edge(EdgeModeFor(spec.serve_mode),
                     spec.edge_storage_budget_bytes, image_model.value(),
                     text_model.value());

  // G/G/c service station: earliest-free-slot min-heap.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      workers;
  for (int i = 0; i < spec.server_concurrency; ++i) workers.push(0.0);

  // Client prompt caches (client-generative mode): (user, page) pairs
  // already generated on-device.  A revisit regenerates locally without
  // touching the network — the repo's PromptCache semantics.
  std::unordered_set<std::uint64_t> client_cache;
  const bool client_generative =
      spec.serve_mode == ServeMode::kClientGenerative;

  obs::SloEngine slo_engine({obs::SloObjective{
      spec.name + "-latency-p99", "load." + spec.name + ".latency", 99.0,
      spec.slo_threshold_seconds, spec.slo_target, 300.0, 3600.0, 14.4,
      14.4}});
  const double ingest_step =
      spec.duration_seconds / static_cast<double>(spec.slo_ingest_points);
  double next_ingest = ingest_step;

  double makespan = 0.0;
  double total_energy_wh = 0.0;

  for (const Arrival& a : arrivals) {
    while (a.arrival_seconds >= next_ingest &&
           next_ingest <= spec.duration_seconds) {
      slo_engine.Ingest("load." + spec.name + ".latency",
                        latency_hist.Snapshot(), ToNanos(next_ingest));
      next_ingest += ingest_step;
    }

    const ClientClass& klass = spec.classes[a.class_index];
    const energy::DeviceProfile& device = DeviceFor(klass);
    const cdn::CatalogItem& item = catalog.item(a.item_index);
    const bool cacheable_on_client = client_generative && !item.unique;
    const std::uint64_t cache_key =
        a.user * static_cast<std::uint64_t>(catalog.size()) + a.item_index;

    ++result.requests;
    requests_counter.Add();

    double latency = 0.0;
    double queue_wait = -1.0;  // <0: request never reached the server
    double generation_seconds = 0.0;
    double wire_seconds = 0.0;
    double request_energy_wh = 0.0;
    std::uint64_t wire_bytes = 0;
    bool client_cache_hit = false;
    bool edge_hit = false;
    std::string outcome_label = "ok";

    if (cacheable_on_client && client_cache.count(cache_key) != 0) {
      // On-device revisit: regenerate locally, nothing on the wire.
      client_cache_hit = true;
      ++result.client_cache_hits;
      cache_hits_counter.Add();
      generation_seconds = ClientGenerationSeconds(
          item, device, image_model.value(), text_model.value());
      request_energy_wh = ClientGenerationEnergyWh(
          item, device, image_model.value(), text_model.value());
      latency = generation_seconds;
    } else {
      // Server leg: wait for a slot (and for any stall window to pass) —
      // open-loop arrivals keep coming, so this wait is *recorded*, not
      // coordinated away.
      const double slot_free = workers.top();
      workers.pop();
      double start = std::max(a.arrival_seconds, slot_free);
      start = PushOutOfStalls(start, stalls);
      queue_wait = start - a.arrival_seconds;

      virtual_clock.SetNanos(ToNanos(start));
      const cdn::ServeOutcome serve = edge.Serve(item);
      edge_hit = serve.hit;

      const double service =
          result.server_overhead_seconds + serve.generation_seconds;
      const double server_done = start + service;
      workers.push(server_done);

      if (a.error) {
        // The response was lost on the way back: the client gives up at
        // its timeout.  The server still did the work.
        outcome_label = "error";
        ++result.errors;
        errors_counter.Add();
        latency = spec.error_timeout_seconds;
        request_energy_wh = serve.generation_energy_wh;
        generation_seconds = serve.generation_seconds;
      } else {
        wire_bytes = serve.bytes_to_user;
        wire_seconds = NetworkSeconds(klass, wire_bytes, a.net_jitter);
        double client_generation = 0.0;
        if (cacheable_on_client) {
          client_generation = ClientGenerationSeconds(
              item, device, image_model.value(), text_model.value());
          request_energy_wh += ClientGenerationEnergyWh(
              item, device, image_model.value(), text_model.value());
          client_cache.insert(cache_key);
        }
        generation_seconds = serve.generation_seconds + client_generation;
        request_energy_wh += serve.generation_energy_wh +
                             energy::TransmissionEnergyWh(wire_bytes);
        latency =
            (server_done - a.arrival_seconds) + wire_seconds + client_generation;
        result.delivered_bytes += wire_bytes;
        delivered_counter.Add(wire_bytes);
      }
    }

    const double completion = a.arrival_seconds + latency;
    makespan = std::max(makespan, completion);
    total_energy_wh += request_energy_wh;

    const std::uint64_t completion_nanos = ToNanos(completion);
    latency_hist.Observe(latency, a.trace_id, completion_nanos);
    registry_latency.Observe(latency, a.trace_id, completion_nanos);
    if (queue_wait >= 0.0) {
      queue_hist.Observe(queue_wait);
      registry_queue.Observe(queue_wait);
    }

    obs::JournalRecord record;
    record.kind = "load";
    record.trace_id = a.trace_id;
    record.path = "item:" + std::to_string(item.id);
    record.timestamp_nanos = completion_nanos;
    record.mode = std::string(ServeModeName(spec.serve_mode));
    record.device = device.name;
    record.outcome = outcome_label;
    record.cache = client_cache_hit || edge_hit ? "hit" : "miss";
    record.total_seconds = latency;
    record.wire_seconds = wire_seconds;
    record.generation_seconds = generation_seconds;
    record.page_bytes = item.content_bytes;
    record.wire_bytes_sent = wire_bytes;
    record.energy_joules = request_energy_wh * 3600.0;
    journal.Record(std::move(record));
  }

  // Flush remaining ingest points, then evaluate at the true end of the
  // run (>= every ingest instant).
  while (next_ingest <= spec.duration_seconds + 0.5 * ingest_step) {
    slo_engine.Ingest("load." + spec.name + ".latency",
                      latency_hist.Snapshot(), ToNanos(next_ingest));
    next_ingest += ingest_step;
  }
  const double end_seconds = std::max(spec.duration_seconds, makespan);
  slo_engine.Ingest("load." + spec.name + ".latency", latency_hist.Snapshot(),
                    ToNanos(end_seconds));
  result.slo = slo_engine.Evaluate(ToNanos(end_seconds));

  tracer.SetClock(nullptr);

  const cdn::EdgeStats edge_stats = edge.stats();
  result.edge_requests = edge_stats.requests;
  result.edge_hits = edge_stats.hits;
  result.makespan_seconds = makespan;
  result.total_energy_wh = total_energy_wh;
  const std::uint64_t good = result.requests - result.errors;
  result.goodput_rps =
      static_cast<double>(good) / spec.duration_seconds;
  result.goodput_mbps = static_cast<double>(result.delivered_bytes) * 8.0 /
                        spec.duration_seconds / 1e6;
  if (good > 0) {
    result.energy_joules_per_page =
        total_energy_wh * 3600.0 / static_cast<double>(good);
    result.gco2e_per_page = energy::OperationalCarbonGrams(total_energy_wh) /
                            static_cast<double>(good);
  }
  result.latency = latency_hist.Snapshot();
  result.queue_wait = queue_hist.Snapshot();
  energy_gauge.Set(total_energy_wh);
  goodput_gauge.Set(result.goodput_rps);
  result.journal_recorded = journal.total_recorded() - journal_total_before;
  result.journal_dropped = journal.dropped() - journal_dropped_before;
  return result;
}

}  // namespace sww::load
