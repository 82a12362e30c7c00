// Tests for the energy/timing module — this is where the paper's Table 1,
// Table 2 and §6.4 numbers are pinned down.
#include <gtest/gtest.h>

#include "energy/carbon.hpp"
#include "energy/device.hpp"
#include "energy/network.hpp"
#include "genai/model_specs.hpp"

namespace sww::energy {
namespace {

genai::ImageModelSpec Sd3() {
  return genai::FindImageModel(genai::kSd3Medium).value();
}
genai::TextModelSpec R1_8b() {
  return genai::FindTextModel(genai::kDeepseek8b).value();
}

// --- Table 1: time per step at 224² ------------------------------------------

TEST(Table1, TimePerStepMatchesPaper) {
  struct Row {
    std::string_view model;
    double laptop, workstation;
  };
  const Row rows[] = {
      {genai::kSd21, 0.18, 0.02},
      {genai::kSd3Medium, 0.38, 0.05},
      {genai::kSd35Medium, 0.59, 0.06},
  };
  for (const Row& row : rows) {
    const auto spec = genai::FindImageModel(row.model).value();
    EXPECT_DOUBLE_EQ(TimePerStep224(Laptop(), spec), row.laptop) << row.model;
    EXPECT_DOUBLE_EQ(TimePerStep224(Workstation(), spec), row.workstation)
        << row.model;
  }
}

TEST(Table1, Dalle3HasNoClientSideTiming) {
  const auto dalle = genai::FindImageModel(genai::kDalle3).value();
  EXPECT_EQ(TimePerStep224(Laptop(), dalle), 0.0);
  EXPECT_EQ(ImageGenerationSeconds(Laptop(), dalle, 15, 512, 512), 0.0);
}

TEST(Table1, Sd3FasterThanSd35AsPaperNotes) {
  // "Generation time also sets apart SD 3 from SD 3.5, as it is 35% faster
  // on a laptop and 13% faster on the workstation."
  const auto sd3 = genai::FindImageModel(genai::kSd3Medium).value();
  const auto sd35 = genai::FindImageModel(genai::kSd35Medium).value();
  EXPECT_NEAR(1.0 - TimePerStep224(Laptop(), sd3) / TimePerStep224(Laptop(), sd35),
              0.35, 0.02);
  EXPECT_NEAR(1.0 - TimePerStep224(Workstation(), sd3) /
                        TimePerStep224(Workstation(), sd35),
              0.13, 0.05);
}

// --- Table 2: generation time & energy ----------------------------------------

struct Table2Row {
  int size;          // square images
  double laptop_s, laptop_wh, workstation_s, workstation_wh;
};

// The printed parameter becomes the ctest name; gtest's default byte dump
// would include the struct's uninitialised padding.
void PrintTo(const Table2Row& row, std::ostream* os) {
  *os << row.size << "x" << row.size;
}

class Table2Images : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2Images, TimeAndEnergyReproduce) {
  const Table2Row& row = GetParam();
  const auto sd3 = Sd3();
  const double laptop_s =
      ImageGenerationSeconds(Laptop(), sd3, 15, row.size, row.size);
  const double ws_s =
      ImageGenerationSeconds(Workstation(), sd3, 15, row.size, row.size);
  EXPECT_NEAR(laptop_s, row.laptop_s, row.laptop_s * 0.06);
  EXPECT_NEAR(ws_s, row.workstation_s, row.workstation_s * 0.06);
  const double laptop_wh =
      ImageGenerationEnergyWh(Laptop(), sd3, 15, row.size, row.size);
  const double ws_wh =
      ImageGenerationEnergyWh(Workstation(), sd3, 15, row.size, row.size);
  EXPECT_NEAR(laptop_wh, row.laptop_wh, row.laptop_wh * 0.25);
  EXPECT_NEAR(ws_wh, row.workstation_wh, row.workstation_wh * 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table2Images,
    ::testing::Values(Table2Row{256, 7.0, 0.02, 1.0, 0.04},
                      Table2Row{512, 19.0, 0.05, 1.7, 0.06},
                      Table2Row{1024, 310.0, 0.90, 6.2, 0.21}));

TEST(Table2, TextRowReproduces) {
  // 250-word text block: laptop 32 s / 0.01 Wh; workstation 13 s / 0.51 Wh.
  const auto model = R1_8b();
  EXPECT_NEAR(TextGenerationSeconds(Laptop(), model, 250), 32.0, 1.5);
  EXPECT_NEAR(TextGenerationSeconds(Workstation(), model, 250), 13.0, 0.5);
  EXPECT_NEAR(TextGenerationEnergyWh(Laptop(), model, 250), 0.01, 0.003);
  EXPECT_NEAR(TextGenerationEnergyWh(Workstation(), model, 250), 0.51, 0.05);
}

// --- §6.3.1 scaling behaviours --------------------------------------------------

TEST(Scaling, TimeIsLinearInSteps) {
  const auto sd3 = Sd3();
  const double t15 = ImageGenerationSeconds(Workstation(), sd3, 15, 512, 512);
  const double t30 = ImageGenerationSeconds(Workstation(), sd3, 30, 512, 512);
  const double t60 = ImageGenerationSeconds(Workstation(), sd3, 60, 512, 512);
  const double overhead = Workstation().encoder_overhead_s;
  EXPECT_NEAR((t30 - overhead) / (t15 - overhead), 2.0, 0.01);
  EXPECT_NEAR((t60 - overhead) / (t30 - overhead), 2.0, 0.01);
}

TEST(Scaling, LaptopBlowsUpBeyond512) {
  // "on the laptop it grows significantly beyond [pixel-proportional] for
  // images of 1024×1024, reaching 310 seconds" — attention splitting.
  const auto sd3 = Sd3();
  const double laptop_512 = ImageGenerationSeconds(Laptop(), sd3, 15, 512, 512);
  const double laptop_1024 =
      ImageGenerationSeconds(Laptop(), sd3, 15, 1024, 1024);
  const double ws_512 = ImageGenerationSeconds(Workstation(), sd3, 15, 512, 512);
  const double ws_1024 =
      ImageGenerationSeconds(Workstation(), sd3, 15, 1024, 1024);
  // Pixel count grows 4×; workstation time grows < 4×, laptop ≫ 4×.
  EXPECT_LT(ws_1024 / ws_512, 4.0);
  EXPECT_GT(laptop_1024 / laptop_512, 8.0);
}

TEST(Scaling, TextLengthDependenceIsWeakAndNonMonotonic) {
  // "50 words text takes longer than 100 and 150 words text for three of
  // the models" — the R1 family; Llama is monotonic.
  for (std::string_view name :
       {genai::kDeepseek15b, genai::kDeepseek8b, genai::kDeepseek14b}) {
    const auto model = genai::FindTextModel(name).value();
    const double t50 = TextGenerationSeconds(Workstation(), model, 50);
    const double t100 = TextGenerationSeconds(Workstation(), model, 100);
    const double t150 = TextGenerationSeconds(Workstation(), model, 150);
    EXPECT_GT(t50, t100) << name;
    EXPECT_GT(t50, t150) << name;
  }
  const auto llama = genai::FindTextModel(genai::kLlama32).value();
  EXPECT_LT(TextGenerationSeconds(Workstation(), llama, 50),
            TextGenerationSeconds(Workstation(), llama, 150));
}

TEST(Scaling, TextWorkstationBenefitIsAbout2point5x) {
  // "The performance benefit of running on a workstation is only 2.5×."
  for (const auto& spec : genai::TextModels()) {
    const double ratio = TextGenerationSeconds(Laptop(), spec, 150) /
                         TextGenerationSeconds(Workstation(), spec, 150);
    EXPECT_NEAR(ratio, 2.4, 0.25) << spec.name;
  }
}

TEST(Scaling, TextTimesInPaperBands) {
  // Workstation 6.98–14.33 s; laptop 16.06–34.04 s across models/lengths.
  for (const auto& spec : genai::TextModels()) {
    for (int words : {50, 100, 150, 250}) {
      const double ws = TextGenerationSeconds(Workstation(), spec, words);
      const double laptop = TextGenerationSeconds(Laptop(), spec, words);
      EXPECT_GE(ws, 5.0) << spec.name << " " << words;
      EXPECT_LE(ws, 15.0) << spec.name << " " << words;
      EXPECT_GE(laptop, 12.0) << spec.name << " " << words;
      EXPECT_LE(laptop, 35.0) << spec.name << " " << words;
    }
  }
}

// --- §6.4: network, energy comparison, carbon ----------------------------------

TEST(Network, LargeImageTransmissionTakesAboutTenMilliseconds) {
  // "sending a large image on a typical 100Mbps link would take about ten
  // milliseconds."
  EXPECT_NEAR(TransmissionSeconds(131072), 0.0105, 0.0005);
}

TEST(Network, WorkstationGenerationIs620xTransmission) {
  const double transmit = TransmissionSeconds(131072);
  const double generate =
      ImageGenerationSeconds(Workstation(), Sd3(), 15, 1024, 1024);
  EXPECT_NEAR(generate / transmit, 620.0, 40.0);
}

TEST(Network, TransmissionEnergyMatchesTelefonicaFigure) {
  // "a large image would cost roughly 0.005Wh to transmit, 2.5% of current
  // workstation generation."
  const double transmit_wh = TransmissionEnergyWh(131072);
  EXPECT_NEAR(transmit_wh, 0.005, 0.0003);
  const double generate_wh =
      ImageGenerationEnergyWh(Workstation(), Sd3(), 15, 1024, 1024);
  EXPECT_NEAR(transmit_wh / generate_wh, 0.025, 0.006);
}

TEST(Network, FleetModelShrinksExabytesToTensOfPetabytes) {
  // §7: 2-3 EB/month at ~100× compression → tens of PB/month.
  FleetTraffic fleet;
  const double pb = fleet.CompressedPetabytesPerMonth();
  EXPECT_GE(pb, 10.0);
  EXPECT_LE(pb, 50.0);
  EXPECT_GT(fleet.MonthlyEnergySavingsMWh(), 0.0);
}

TEST(Carbon, SsdEmbodiedCarbonPerTerabyte) {
  // "6-7 kgCO2e per terabyte of SSD."
  EXPECT_GE(kSsdKgCo2PerTB, 6.0);
  EXPECT_LE(kSsdKgCo2PerTB, 7.0);
  EXPECT_NEAR(EmbodiedCarbonKg(2e12), 13.0, 0.5);
}

TEST(Carbon, ExabyteScaleSavingsAreMillionsOfKg) {
  // "With exabyte scale storage, even modest compression can save millions
  // of kgCO2e."
  const double saved = CarbonSavedKg(/*terabytes=*/1e6, /*factor=*/3.0);
  EXPECT_GT(saved, 1e6);
}

TEST(Carbon, NoSavingsWithoutCompression) {
  EXPECT_DOUBLE_EQ(CarbonSavedKg(1000, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(CarbonSavedKg(1000, 0.5), 0.0);
}

TEST(Carbon, OperationalCarbonConversion) {
  EXPECT_NEAR(OperationalCarbonGrams(1000.0), 436.0, 1.0);
}

// --- device profiles -------------------------------------------------------------

TEST(Devices, ProfilesMatchPaperHardwareShape) {
  EXPECT_TRUE(Laptop().attention_splitting);
  EXPECT_FALSE(Workstation().attention_splitting);
  EXPECT_GT(Workstation().image_power_w, Laptop().image_power_w);
  EXPECT_GT(Laptop().pixel_exponent, Workstation().pixel_exponent);
}

}  // namespace
}  // namespace sww::energy
