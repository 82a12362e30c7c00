// Tests for the video streaming substrate (§3.2).
#include <gtest/gtest.h>

#include "http2/settings.hpp"
#include "video/streaming.hpp"

namespace sww::video {
namespace {

TEST(Rates, PaperAnchors) {
  // "turning 7GB/hour into 3GB/hour" (4K → HD), and 60→30 fps halving.
  EXPECT_DOUBLE_EQ(GigabytesPerHour(Resolution::k4K, 60), 7.0);
  EXPECT_DOUBLE_EQ(GigabytesPerHour(Resolution::kHD, 60), 3.0);
  EXPECT_DOUBLE_EQ(GigabytesPerHour(Resolution::k4K, 30), 3.5);
  EXPECT_NEAR(GigabytesPerHour(Resolution::k4K, 60) /
                  GigabytesPerHour(Resolution::kHD, 60),
              2.33, 0.01);
}

TEST(Ladder, CoversResolutionFpsGrid) {
  const auto ladder = StandardLadder();
  EXPECT_EQ(ladder.size(), 6u);
  EXPECT_EQ(ladder.front().name, "480p30");
  EXPECT_EQ(ladder.back().name, "4K60");
}

struct NegotiationCase {
  const char* name;
  std::uint32_t ability;
  const char* transmitted;
  double savings;  // baseline / planned
  bool upscale, boost;
};

// The printed parameter goes into the ctest name; gtest's default byte dump
// would include the pointers and padding, which change from run to run. The
// case's name is already in the test name, so print the expected variant.
void PrintTo(const NegotiationCase& c, std::ostream* os) {
  *os << c.transmitted;
}

class VideoNegotiation : public ::testing::TestWithParam<NegotiationCase> {};

TEST_P(VideoNegotiation, PicksCheapestReconstructibleVariant) {
  const NegotiationCase& c = GetParam();
  const DeliveryPlan plan = Negotiate({Resolution::k4K, 60}, c.ability);
  EXPECT_EQ(plan.transmitted.name, c.transmitted) << c.name;
  EXPECT_NEAR(plan.DataSavingsFactor(), c.savings, 0.02) << c.name;
  EXPECT_EQ(plan.client_upscales, c.upscale) << c.name;
  EXPECT_EQ(plan.client_boosts_frame_rate, c.boost) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, VideoNegotiation,
    ::testing::Values(
        NegotiationCase{"naive_client", 0, "4K60", 1.0, false, false},
        NegotiationCase{"frame_boost_only", http2::kGenAbilityFrameRateBoost,
                        "4K30", 2.0, false, true},
        NegotiationCase{"upscale_only", http2::kGenAbilityUpscaleOnly, "HD60",
                        7.0 / 3.0, true, false},
        NegotiationCase{"both",
                        http2::kGenAbilityUpscaleOnly |
                            http2::kGenAbilityFrameRateBoost,
                        "HD30", 14.0 / 3.0, true, true},
        NegotiationCase{"full_gen_is_not_video_ability",
                        http2::kGenAbilityFull, "4K60", 1.0, false, false}),
    [](const ::testing::TestParamInfo<NegotiationCase>& info) {
      return info.param.name;
    });

TEST(VideoNegotiation, HdTargetWithUpscaleShips480p) {
  const DeliveryPlan plan =
      Negotiate({Resolution::kHD, 30}, http2::kGenAbilityUpscaleOnly);
  EXPECT_EQ(plan.transmitted.resolution, Resolution::k480p);
  EXPECT_TRUE(plan.client_upscales);
}

TEST(VideoNegotiation, ThirtyFpsTargetNeedsNoBoost) {
  const DeliveryPlan plan =
      Negotiate({Resolution::k4K, 30}, http2::kGenAbilityFrameRateBoost);
  EXPECT_EQ(plan.transmitted.fps, 30);
  EXPECT_FALSE(plan.client_boosts_frame_rate);
}

TEST(Streaming, OneHourReportAccounting) {
  const DeliveryPlan plan = Negotiate(
      {Resolution::k4K, 60},
      http2::kGenAbilityUpscaleOnly | http2::kGenAbilityFrameRateBoost);
  const StreamingReport report = SimulateStreaming(plan, 1.0);
  EXPECT_DOUBLE_EQ(report.baseline_gb, 7.0);
  EXPECT_NEAR(report.transmitted_gb, 1.5, 0.01);
  EXPECT_NEAR(report.saved_gb, 5.5, 0.01);
  // 30 fps × 3600 s interpolated once each; 60 output fps upscaled.
  EXPECT_EQ(report.frames_interpolated, 108000u);
  EXPECT_EQ(report.frames_upscaled, 216000u);
  EXPECT_GT(report.transmission_energy_saved_wh, 100.0);  // 5.5 GB × 0.038 Wh/MB
}

TEST(Streaming, NaiveClientSavesNothing) {
  const DeliveryPlan plan = Negotiate({Resolution::k4K, 60}, 0);
  const StreamingReport report = SimulateStreaming(plan, 2.0);
  EXPECT_DOUBLE_EQ(report.saved_gb, 0.0);
  EXPECT_EQ(report.frames_interpolated, 0u);
  EXPECT_EQ(report.frames_upscaled, 0u);
}

TEST(ResolutionName, Readable) {
  EXPECT_STREQ(ResolutionName(Resolution::k4K), "4K");
  EXPECT_STREQ(ResolutionName(Resolution::k480p), "480p");
}

}  // namespace
}  // namespace sww::video
