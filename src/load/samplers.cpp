#include "load/samplers.hpp"

#include <algorithm>
#include <cmath>

namespace sww::load {

double ArrivalCurve::RateAt(double t) const {
  double rate = base_rps;
  if (diurnal_amplitude > 0.0 && diurnal_period_seconds > 0.0) {
    rate *= 1.0 + diurnal_amplitude *
                      std::sin(2.0 * M_PI * t / diurnal_period_seconds);
  }
  for (const FlashCrowd& crowd : flash_crowds) {
    if (t >= crowd.start_seconds &&
        t < crowd.start_seconds + crowd.duration_seconds) {
      rate *= crowd.multiplier;
    }
  }
  return rate < 0.0 ? 0.0 : rate;
}

ArrivalSchedule::ArrivalSchedule(const ArrivalCurve& curve,
                                 double duration_seconds, std::uint64_t seed)
    : duration_(duration_seconds > 0.0 ? duration_seconds : 0.0),
      step_(duration_ / static_cast<double>(kGridSteps)),
      seed_(seed) {
  // Trapezoidal cumulative rate on the fixed grid.  The grid — not the
  // host — defines the integral, so every machine tabulates the same Λ.
  cumulative_.resize(kGridSteps + 1);
  cumulative_[0] = 0.0;
  double previous_rate = curve.RateAt(0.0);
  for (std::size_t i = 1; i <= kGridSteps; ++i) {
    const double t = static_cast<double>(i) * step_;
    const double rate = curve.RateAt(t);
    cumulative_[i] =
        cumulative_[i - 1] + 0.5 * (previous_rate + rate) * step_;
    previous_rate = rate;
  }
  const double expected = cumulative_.back();
  count_ = expected > 0.0 ? static_cast<std::size_t>(expected) : 0;
}

double ArrivalSchedule::InverseCumulative(double target) const {
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), target);
  if (it == cumulative_.begin()) return 0.0;
  if (it == cumulative_.end()) return duration_;
  const std::size_t hi = static_cast<std::size_t>(it - cumulative_.begin());
  const double lo_value = cumulative_[hi - 1];
  const double hi_value = cumulative_[hi];
  const double span = hi_value - lo_value;
  const double frac = span > 0.0 ? (target - lo_value) / span : 0.0;
  return (static_cast<double>(hi - 1) + frac) * step_;
}

double ArrivalSchedule::ArrivalSeconds(std::size_t index) const {
  const double jitter = Draw(seed_, index, DrawStream::kArrivalJitter);
  return InverseCumulative(static_cast<double>(index) + jitter);
}

std::size_t WeightedChoice(const std::vector<double>& cumulative_weights,
                           double u) {
  if (cumulative_weights.empty()) return 0;
  if (u <= 0.0) return 0;
  if (u >= 1.0) return cumulative_weights.size() - 1;
  const auto it = std::lower_bound(cumulative_weights.begin(),
                                   cumulative_weights.end(), u);
  if (it == cumulative_weights.end()) return cumulative_weights.size() - 1;
  return static_cast<std::size_t>(it - cumulative_weights.begin());
}

std::vector<double> CumulativeWeights(const std::vector<double>& weights) {
  std::vector<double> cumulative(weights.size());
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) total = 1.0;
  double running = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    running += (weights[i] > 0.0 ? weights[i] : 0.0) / total;
    cumulative[i] = running;
  }
  if (!cumulative.empty()) cumulative.back() = 1.0;
  return cumulative;
}

}  // namespace sww::load
