// Determinism and distribution tests for the fleet workload samplers.
//
// The samplers' whole contract is schedule independence: the i-th draw is
// a pure function of (seed, i, stream), so the golden first-K values here
// pin the bit pattern forever — any change to CounterHash, the stream
// ids, or the jittered-quantile inversion shows up as a golden diff, not
// as a silent reshuffle of every downstream scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <vector>

#include "cdn/catalog.hpp"
#include "load/samplers.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sww::load {
namespace {

TEST(LoadSamplers, GoldenFirstDraws) {
  const double expected[8] = {
      0.93034039667142687, 0.19917790246429634, 0.97523166559080876,
      0.58256934394421012, 0.55187732091933372, 0.99816902304045507,
      0.62894382831000861, 0.46754025274370836,
  };
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(Draw(42, i, DrawStream::kPage), expected[i]) << i;
  }
  const std::uint64_t expected_u64[4] = {
      16903240629303690400ull,
      12043192113689477002ull,
      11780871626915272135ull,
      15802743936537045765ull,
  };
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(DrawU64(42, i, DrawStream::kTrace), expected_u64[i]) << i;
  }
}

TEST(LoadSamplers, StreamsAreIndependent) {
  // Same (seed, index) on different streams must decorrelate.
  EXPECT_NE(Draw(42, 0, DrawStream::kPage), Draw(42, 0, DrawStream::kClass));
  EXPECT_NE(Draw(42, 0, DrawStream::kUser), Draw(42, 0, DrawStream::kError));
  EXPECT_NE(DrawU64(42, 0, DrawStream::kTrace),
            DrawU64(43, 0, DrawStream::kTrace));
}

TEST(LoadSamplers, DrawsAreInUnitInterval) {
  for (int i = 0; i < 4096; ++i) {
    const double u = Draw(7, i, DrawStream::kArrivalJitter);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(LoadSamplers, UniformChiSquareWithinBounds) {
  // 20k uniform draws over 16 equiprobable cells.  15 degrees of freedom:
  // chi-square beyond 37.7 has p < 0.001 — deterministic draws, so this
  // either always passes or flags a genuinely broken generator.
  constexpr int kCells = 16;
  constexpr int kDraws = 20000;
  int counts[kCells] = {};
  for (int i = 0; i < kDraws; ++i) {
    const double u = Draw(1234, i, DrawStream::kNetworkJitter);
    ++counts[static_cast<int>(u * kCells)];
  }
  const double expected = static_cast<double>(kDraws) / kCells;
  double chi2 = 0.0;
  for (int c = 0; c < kCells; ++c) {
    const double d = counts[c] - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 37.7) << "uniform draws fail chi-square";
}

/// The load engine's page popularity: a synthetic catalog whose items
/// carry Zipf(s) weights by rank, sampled through its CDF.
cdn::Catalog ZipfCatalog(std::size_t items, double exponent) {
  cdn::CatalogOptions options;
  options.item_count = items;
  options.zipf_exponent = exponent;
  return cdn::Catalog::MakeSynthetic(options);
}

/// The analytic pmf: rank k's weight over the total.
double Probability(const cdn::Catalog& catalog, std::size_t rank) {
  double total = 0.0;
  for (const cdn::CatalogItem& item : catalog.items()) {
    total += item.popularity_weight;
  }
  return catalog.item(rank).popularity_weight / total;
}

TEST(LoadSamplers, ZipfChiSquareMatchesAnalyticPmf) {
  // Sampled Zipf ranks against the analytic pmf of the catalog weights.
  constexpr int kItems = 32;
  constexpr int kDraws = 20000;
  const cdn::Catalog zipf = ZipfCatalog(kItems, 1.1);
  std::vector<int> counts(kItems, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[zipf.SampleRequestUniform(Draw(99, i, DrawStream::kPage))];
  }
  double chi2 = 0.0;
  for (int k = 0; k < kItems; ++k) {
    const double expected = Probability(zipf, k) * kDraws;
    ASSERT_GT(expected, 5.0) << "cell too thin for chi-square at rank " << k;
    const double d = counts[k] - expected;
    chi2 += d * d / expected;
  }
  // 31 degrees of freedom: p < 0.001 beyond ~61.1.
  EXPECT_LT(chi2, 61.1) << "zipf draws fail chi-square";
}

TEST(LoadSamplers, ZipfHeadOutweighsTail) {
  const cdn::Catalog zipf = ZipfCatalog(64, 1.0);
  EXPECT_GT(Probability(zipf, 0), Probability(zipf, 1));
  EXPECT_GT(Probability(zipf, 1), Probability(zipf, 63));
  double total = 0.0;
  for (std::size_t k = 0; k < 64; ++k) total += Probability(zipf, k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(LoadSamplers, BitIdenticalAcrossSimdLanes) {
  // Draws must not depend on the active SIMD lane: run the same window
  // under every supported lane and require exact equality.
  const util::simd::Lane original = util::simd::ActiveLane();
  std::vector<double> reference;
  std::vector<std::uint64_t> reference_u64;
  for (util::simd::Lane lane :
       {util::simd::Lane::kScalar, util::simd::Lane::kAvx2}) {
    if (!util::simd::LaneSupported(lane)) continue;
    util::simd::SetActiveLane(lane);
    std::vector<double> draws;
    std::vector<std::uint64_t> draws_u64;
    for (int i = 0; i < 512; ++i) {
      draws.push_back(Draw(42, i, DrawStream::kPage));
      draws_u64.push_back(DrawU64(42, i, DrawStream::kTrace));
    }
    if (reference.empty()) {
      reference = draws;
      reference_u64 = draws_u64;
    } else {
      EXPECT_EQ(draws, reference)
          << "lane " << util::simd::LaneName(lane) << " diverged";
      EXPECT_EQ(draws_u64, reference_u64)
          << "lane " << util::simd::LaneName(lane) << " diverged (u64)";
    }
  }
  util::simd::SetActiveLane(original);
}

TEST(LoadSamplers, ArrivalScheduleIsThreadCountInvariant) {
  ArrivalCurve curve;
  curve.base_rps = 6.0;
  curve.diurnal_amplitude = 0.4;
  curve.diurnal_period_seconds = 60.0;
  curve.flash_crowds.push_back({20.0, 5.0, 3.0});
  const ArrivalSchedule schedule(curve, 60.0, 42);
  ASSERT_GT(schedule.count(), 0u);

  // Sequential reference.
  std::vector<double> reference(schedule.count());
  for (std::size_t i = 0; i < schedule.count(); ++i) {
    reference[i] = schedule.ArrivalSeconds(i);
  }
  // Evaluate the same indices from pools of several sizes; any thread may
  // compute any index, so the result must be bit-identical.
  for (int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    std::vector<double> parallel(schedule.count());
    pool.ParallelFor(static_cast<std::int64_t>(schedule.count()),
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         parallel[static_cast<std::size_t>(i)] =
                             schedule.ArrivalSeconds(
                                 static_cast<std::size_t>(i));
                       }
                     });
    EXPECT_EQ(parallel, reference) << "pool size " << threads;
  }
}

TEST(LoadSamplers, ArrivalScheduleGolden) {
  ArrivalCurve curve;
  curve.base_rps = 6.0;
  const ArrivalSchedule schedule(curve, 60.0, 42);
  EXPECT_EQ(schedule.count(), 360u);
  const double expected[4] = {
      0.11622440781507767,
      0.25083580937574207,
      0.3355206612060071,
      0.52192119517612989,
  };
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(schedule.ArrivalSeconds(i), expected[i]) << i;
  }
}

TEST(LoadSamplers, ArrivalScheduleIsStrictlyMonotone) {
  ArrivalCurve curve;
  curve.base_rps = 12.0;
  curve.diurnal_amplitude = 0.6;
  curve.diurnal_period_seconds = 120.0;
  curve.flash_crowds.push_back({30.0, 10.0, 6.0});
  const ArrivalSchedule schedule(curve, 120.0, 1001);
  ASSERT_GT(schedule.count(), 1u);
  double previous = -1.0;
  for (std::size_t i = 0; i < schedule.count(); ++i) {
    const double t = schedule.ArrivalSeconds(i);
    EXPECT_GT(t, previous) << "arrival " << i << " not after its predecessor";
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 120.0 + 1e-9);
    previous = t;
  }
}

TEST(LoadSamplers, FlashCrowdRaisesRate) {
  ArrivalCurve curve;
  curve.base_rps = 10.0;
  curve.flash_crowds.push_back({60.0, 10.0, 6.0});
  EXPECT_DOUBLE_EQ(curve.RateAt(30.0), 10.0);
  EXPECT_DOUBLE_EQ(curve.RateAt(65.0), 60.0);
  EXPECT_DOUBLE_EQ(curve.RateAt(70.0), 10.0);  // window is half-open
}

TEST(LoadSamplers, WeightedChoicePicksSlots) {
  const std::vector<double> cumulative = CumulativeWeights({7.0, 3.0});
  ASSERT_EQ(cumulative.size(), 2u);
  EXPECT_NEAR(cumulative[0], 0.7, 1e-12);
  EXPECT_NEAR(cumulative[1], 1.0, 1e-12);
  EXPECT_EQ(WeightedChoice(cumulative, 0.0), 0u);
  EXPECT_EQ(WeightedChoice(cumulative, 0.69), 0u);
  EXPECT_EQ(WeightedChoice(cumulative, 0.71), 1u);
  EXPECT_EQ(WeightedChoice(cumulative, 0.999), 1u);
}

}  // namespace
}  // namespace sww::load
