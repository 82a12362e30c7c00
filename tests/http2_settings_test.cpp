// Tests for HTTP/2 SETTINGS handling and the paper's SETTINGS_GEN_ABILITY
// extension (§3).
#include <gtest/gtest.h>

#include "http2/settings.hpp"

namespace sww::http2 {
namespace {

TEST(Settings, RfcDefaults) {
  Settings settings;
  EXPECT_EQ(settings.header_table_size(), 4096u);
  EXPECT_TRUE(settings.enable_push());
  EXPECT_EQ(settings.initial_window_size(), 65535u);
  EXPECT_EQ(settings.max_frame_size(), 16384u);
  EXPECT_EQ(settings.gen_ability(), kGenAbilityNone);
}

TEST(Settings, GenAbilityIdentifierIsSevenAsInPaper) {
  // "The identifier is 0x07 (as the first unreserved value, for
  // prototyping purposes) and the value is set to 1."
  EXPECT_EQ(kSettingsGenAbility, 0x07);
  Settings settings;
  ASSERT_TRUE(settings.Apply({kSettingsGenAbility, 1}).ok());
  EXPECT_EQ(settings.gen_ability(), kGenAbilityFull);
}

TEST(Settings, NonDefaultEntriesContainGenAbility) {
  Settings settings;
  settings.set_gen_ability(kGenAbilityFull);
  const auto entries = settings.NonDefaultEntries();
  bool found = false;
  for (const SettingsEntry& entry : entries) {
    if (entry.identifier == kSettingsGenAbility) {
      found = true;
      EXPECT_EQ(entry.value, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Settings, EnablePushValidation) {
  Settings settings;
  EXPECT_TRUE(settings.Apply({kSettingsEnablePush, 0}).ok());
  EXPECT_FALSE(settings.enable_push());
  EXPECT_FALSE(settings.Apply({kSettingsEnablePush, 2}).ok());
}

TEST(Settings, InitialWindowSizeBounds) {
  Settings settings;
  EXPECT_TRUE(settings.Apply({kSettingsInitialWindowSize, 0x7fffffffu}).ok());
  auto status = settings.Apply({kSettingsInitialWindowSize, 0x80000000u});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kFlowControl);
}

TEST(Settings, MaxFrameSizeBounds) {
  Settings settings;
  EXPECT_FALSE(settings.Apply({kSettingsMaxFrameSize, 16383}).ok());
  EXPECT_TRUE(settings.Apply({kSettingsMaxFrameSize, 16384}).ok());
  EXPECT_TRUE(settings.Apply({kSettingsMaxFrameSize, 16777215}).ok());
  EXPECT_FALSE(settings.Apply({kSettingsMaxFrameSize, 16777216}).ok());
}

TEST(Settings, UnknownIdentifiersIgnoredButRecorded) {
  // RFC 9113 §6.5.2 — this rule is what lets naïve peers interoperate
  // with SWW endpoints.
  Settings settings;
  ASSERT_TRUE(settings.Apply({0x99, 1234}).ok());
  EXPECT_EQ(settings.unknown().at(0x99), 1234u);
  // No protocol-visible effect.
  EXPECT_EQ(settings.NonDefaultEntries().size(), 0u);
}

TEST(Settings, ApplyAllStopsAtFirstError) {
  Settings settings;
  const std::vector<SettingsEntry> entries = {
      {kSettingsHeaderTableSize, 8192},
      {kSettingsEnablePush, 7},   // invalid
      {kSettingsGenAbility, 1}};  // never applied
  EXPECT_FALSE(settings.ApplyAll(entries).ok());
  EXPECT_EQ(settings.header_table_size(), 8192u);
  EXPECT_EQ(settings.gen_ability(), kGenAbilityNone);
}

// --- negotiation matrix (§3 and §6.2 of the paper) --------------------------

struct NegotiationCase {
  std::uint32_t client;
  std::uint32_t server;
  std::uint32_t expected;
  bool generative;
};

// The printed parameter becomes the ctest name; gtest's default byte dump
// would include the struct's uninitialised padding.
void PrintTo(const NegotiationCase& c, std::ostream* os) {
  *os << "client" << c.client << "_server" << c.server;
}

class GenAbilityNegotiation : public ::testing::TestWithParam<NegotiationCase> {};

TEST_P(GenAbilityNegotiation, MatrixMatchesPaper) {
  const NegotiationCase& c = GetParam();
  EXPECT_EQ(NegotiateGenAbility(c.client, c.server), c.expected);
  EXPECT_EQ((NegotiateGenAbility(c.client, c.server) & kGenAbilityFull) != 0,
            c.generative);
}

// §6.2: "Basic functionality testing covered scenarios where both client
// and server support generated content, only one side supports generated
// content, and no side supports it.  Except for the first scenario, in all
// other cases the communication defaulted to standard HTTP/2."
INSTANTIATE_TEST_SUITE_P(
    Paper, GenAbilityNegotiation,
    ::testing::Values(
        NegotiationCase{kGenAbilityFull, kGenAbilityFull, kGenAbilityFull, true},
        NegotiationCase{kGenAbilityFull, kGenAbilityNone, kGenAbilityNone, false},
        NegotiationCase{kGenAbilityNone, kGenAbilityFull, kGenAbilityNone, false},
        NegotiationCase{kGenAbilityNone, kGenAbilityNone, kGenAbilityNone, false},
        // "the 32-bit field can be used to negotiate more complex support
        // options, such as upscale-only."
        NegotiationCase{kGenAbilityUpscaleOnly | kGenAbilityFull,
                        kGenAbilityUpscaleOnly, kGenAbilityUpscaleOnly, false},
        NegotiationCase{kGenAbilityFull | kGenAbilityFrameRateBoost,
                        kGenAbilityFull | kGenAbilityFrameRateBoost,
                        kGenAbilityFull | kGenAbilityFrameRateBoost, true}));

TEST(GenAbilityToString, Readable) {
  EXPECT_EQ(GenAbilityToString(kGenAbilityNone), "none");
  EXPECT_EQ(GenAbilityToString(kGenAbilityFull), "full");
  EXPECT_EQ(GenAbilityToString(kGenAbilityFull | kGenAbilityUpscaleOnly),
            "full|upscale-only");
  EXPECT_EQ(GenAbilityToString(0x100), "unknown-bits");
}

}  // namespace
}  // namespace sww::http2
