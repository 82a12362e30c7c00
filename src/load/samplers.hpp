// samplers.hpp — stateless samplers for the fleet workload engine.
//
// Every random quantity the load engine draws — which page, which client
// class, how much network jitter, when exactly the i-th request arrives —
// comes from util::CounterHash keyed by (scenario seed, arrival index,
// stream id).  No sampler carries sequential state, so the per-arrival
// precompute pass can be tiled across any number of threads (or SIMD
// lanes) and still produce bit-identical populations: the i-th request is
// the same request no matter who computes it.  This is the same contract
// that makes the tile-parallel diffusion renderer schedule-independent.
//
// The arrival process is *open-loop* by construction: arrival times are a
// pure function of the scenario spec and the virtual clock, never of
// completions.  A stalled server therefore keeps accumulating arrivals —
// latency percentiles inflate instead of the arrival stream silently
// thinning, which is precisely the coordinated-omission bug in closed-loop
// harnesses that this module exists to avoid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace sww::load {

/// Stream ids separating the independent per-arrival draws.  Stable
/// values: changing one reshuffles every golden trace downstream.
enum class DrawStream : std::uint64_t {
  kArrivalJitter = 1,  ///< position of arrival i inside its quantile slot
  kPage = 2,           ///< Zipf page draw (cdn::Catalog popularity CDF)
  kClass = 3,          ///< client-class mix draw
  kNetworkJitter = 4,  ///< per-request wire time wobble
  kError = 5,          ///< request failure draw
  kUser = 6,           ///< which member of the population issued it
  kTrace = 7,          ///< trace id linking exemplars ↔ journal records
};

/// Uniform double in [0, 1) for arrival `index` on `stream`.  Stateless.
inline double Draw(std::uint64_t seed, std::uint64_t index, DrawStream stream) {
  return util::CounterRange(seed, index, static_cast<std::uint64_t>(stream),
                            0.0, 1.0);
}

/// Uniform 64-bit value for arrival `index` on `stream`.  Stateless.
inline std::uint64_t DrawU64(std::uint64_t seed, std::uint64_t index,
                             DrawStream stream) {
  return util::CounterHash(seed, index,
                           static_cast<std::uint64_t>(stream));
}

/// One flash-crowd burst: the arrival rate multiplies by `multiplier`
/// inside [start, start + duration).
struct FlashCrowd {
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  double multiplier = 1.0;
};

/// The time-varying arrival rate: a base requests/second scaled by a
/// diurnal sinusoid and any active flash crowds.
struct ArrivalCurve {
  double base_rps = 10.0;
  /// Diurnal swing in [0, 1): rate(t) spans base·(1±amplitude).
  double diurnal_amplitude = 0.0;
  double diurnal_period_seconds = 86400.0;
  std::vector<FlashCrowd> flash_crowds;

  /// Instantaneous rate at virtual time `t` (requests/second, >= 0).
  double RateAt(double t) const;
};

/// Deterministic open-loop arrival schedule over [0, duration): the
/// cumulative rate Λ(t) is tabulated on a fixed grid, the total count is
/// N = floor(Λ(duration)), and arrival i sits at Λ⁻¹(i + jitter_i) with
/// jitter_i ∈ [0, 1) drawn statelessly — a jittered-quantile inversion.
/// Arrival times are strictly increasing in i (quantile slots do not
/// overlap), and ArrivalSeconds(i) is a pure function of (spec, i): the
/// schedule can be evaluated in any order, from any thread.
class ArrivalSchedule {
 public:
  /// Grid resolution for the cumulative-rate table.  Fixed (not adaptive)
  /// so the schedule is identical regardless of host or duration.
  static constexpr std::size_t kGridSteps = 8192;

  ArrivalSchedule(const ArrivalCurve& curve, double duration_seconds,
                  std::uint64_t seed);

  std::size_t count() const { return count_; }
  double duration_seconds() const { return duration_; }

  /// Virtual arrival time of request `index` (seconds, in [0, duration)).
  double ArrivalSeconds(std::size_t index) const;

 private:
  /// Smallest t with cumulative(t) >= target (linear interpolation
  /// between grid points).
  double InverseCumulative(double target) const;

  double duration_;
  double step_;
  std::uint64_t seed_;
  std::size_t count_;
  std::vector<double> cumulative_;  ///< Λ at grid point i·step
};

/// Index of the slot containing `u` in a cumulative weight table
/// (cumulative_weights.back() must be ~1).  Binary search; deterministic.
std::size_t WeightedChoice(const std::vector<double>& cumulative_weights,
                           double u);

/// Normalize raw weights into the cumulative table WeightedChoice wants.
std::vector<double> CumulativeWeights(const std::vector<double>& weights);

}  // namespace sww::load
