/**
 * Schema-driven Flags, the experiment registry, and the shared
 * manufacturer grouping helper.
 */
#include "common/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "common/error.h"
#include "core/campaign_checkpoint.h"

namespace vrddram::bench {
namespace {

const std::vector<FlagSpec> kSchema = {
    {"rows", "6", "victim rows per device"},
    {"ber", "0.25", "bit error rate"},
    {"device", "M1", "device under test"},
    {"rig", "true", "use the thermal rig"},
};

TEST(FlagsSchemaTest, GettersFallBackToSchemaDefaults) {
  const Flags flags({}, kSchema);
  EXPECT_EQ(flags.GetUint("rows"), 6u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ber"), 0.25);
  EXPECT_EQ(flags.GetString("device"), "M1");
  EXPECT_TRUE(flags.GetBool("rig"));
}

TEST(FlagsSchemaTest, ArgumentsOverrideDefaults) {
  const Flags flags({"--rows=42", "--rig=false"}, kSchema);
  EXPECT_EQ(flags.GetUint("rows"), 42u);
  EXPECT_FALSE(flags.GetBool("rig"));
  EXPECT_EQ(flags.GetString("device"), "M1");
}

TEST(FlagsSchemaTest, RejectsFlagsOutsideTheSchema) {
  EXPECT_THROW(Flags({"--bogus=1"}, kSchema), FatalError);
  const Flags flags({}, kSchema);
  EXPECT_THROW(flags.GetUint("not_declared"), FatalError);
}

TEST(FlagsSchemaTest, DescribeListsEveryFlagWithDefaultAndHelp) {
  const std::string text = Flags::Describe(kSchema);
  EXPECT_NE(text.find("flags:"), std::string::npos);
  EXPECT_NE(text.find("--rows=6"), std::string::npos);
  EXPECT_NE(text.find("victim rows per device"), std::string::npos);
  EXPECT_NE(text.find("--rig=true"), std::string::npos);
  const Flags flags({}, kSchema);
  EXPECT_EQ(flags.Describe(), text);
  EXPECT_EQ(Flags::Describe({}), "");
}

TEST(ExperimentRegistryTest, FindsEveryPortedExperiment) {
  const auto& registry = ExperimentRegistry::Instance();
  for (const char* name :
       {"fig01_rdt_series", "fig10_data_pattern", "fig11_taggon",
        "table01_population", "table07_module_summary",
        "appendix_test_time", "future_ddr5"}) {
    const ExperimentSpec* spec = registry.Find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_TRUE(spec->analyze) << name;
  }
  EXPECT_EQ(registry.Find("no_such_experiment"), nullptr);
}

TEST(ExperimentRegistryTest, AllIsSortedAndComplete) {
  const auto all = ExperimentRegistry::Instance().All();
  EXPECT_GE(all.size(), 24u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  }
}

TEST(ExperimentRegistryTest, RejectsDuplicateAndMalformedSpecs) {
  auto& registry = ExperimentRegistry::Instance();
  ExperimentSpec duplicate;
  duplicate.name = "fig10_data_pattern";
  duplicate.analyze = [](const core::CampaignResult&, Report*) {};
  EXPECT_THROW(registry.Register(duplicate), FatalError);

  ExperimentSpec unnamed;
  unnamed.analyze = [](const core::CampaignResult&, Report*) {};
  EXPECT_THROW(registry.Register(unnamed), FatalError);

  ExperimentSpec no_analyze;
  no_analyze.name = "zz_no_analyze";
  EXPECT_THROW(registry.Register(no_analyze), FatalError);
}

/**
 * Every campaign experiment's config, built from its schema defaults
 * and from its smoke arguments, hashes to the value recorded before
 * the flag-to-config code was shared (re-recorded for checkpoint format
 * version 2: the key includes the version, and the key string is
 * otherwise unchanged). The hash is the campaign cache key, so a drift
 * here would silently re-measure (or mis-share) every cached campaign.
 */
TEST(ExperimentRegistryTest, CampaignConfigHashesArePinned) {
  const struct {
    const char* name;
    std::uint64_t defaults;
    std::uint64_t smoke;
  } kPinned[] = {
      {"fig07_cv_scurve", 0x6883810a677ba093ull, 0x901895d8bc1aae91ull},
      {"fig08_min_rdt_probability", 0xfe1b4287d4f35e0aull,
       0x8eca763d6839a42eull},
      {"fig09_density_die_rev", 0xbd7e86124d63905full,
       0x99446efc9a2291f0ull},
      {"fig10_data_pattern", 0xed0f7c5973c409cbull, 0x85aa6c9fe86bd2faull},
      {"fig11_taggon", 0x4e70cda30e972cfeull, 0xab3193b08b13a064ull},
      {"fig12_temperature", 0x6ec92d36005a3327ull, 0x8ebdda8bd19aced9ull},
      {"fig15_guardband_probability", 0xbda9e9f054b7fcaaull,
       0xac54cba55331c373ull},
      {"table07_module_summary", 0x7102afdcf1b82a7eull,
       0x162ceff36b5b72a6ull},
  };
  std::size_t campaigns = 0;
  for (const ExperimentSpec* spec : ExperimentRegistry::Instance().All()) {
    if (!spec->build_campaign) {
      continue;
    }
    ++campaigns;
    const std::uint64_t defaults = core::HashCampaignConfig(
        spec->build_campaign(Flags({}, spec->flags)));
    const std::uint64_t smoke = core::HashCampaignConfig(
        spec->build_campaign(Flags(spec->smoke_args, spec->flags)));
    const auto* pinned =
        std::find_if(std::begin(kPinned), std::end(kPinned),
                     [&](const auto& p) { return spec->name == p.name; });
    ASSERT_NE(pinned, std::end(kPinned)) << spec->name;
    EXPECT_EQ(defaults, pinned->defaults) << spec->name;
    EXPECT_EQ(smoke, pinned->smoke) << spec->name;
  }
  EXPECT_EQ(campaigns, std::size(kPinned));
}

TEST(GroupNameTest, Hbm2ChipsShareOneGroup) {
  core::SeriesRecord record;
  record.standard = dram::Standard::kHbm2;
  record.mfr = vrd::Manufacturer::kMfrS;
  EXPECT_EQ(ManufacturerGroupName(record), "Mfr. S HBM2");
}

TEST(GroupNameTest, Ddr4ModulesGroupByManufacturer) {
  core::SeriesRecord record;
  record.standard = dram::Standard::kDdr4;
  record.mfr = vrd::Manufacturer::kMfrM;
  EXPECT_EQ(ManufacturerGroupName(record), ToString(record.mfr));
  record.mfr = vrd::Manufacturer::kMfrH;
  EXPECT_EQ(ManufacturerGroupName(record), "Mfr. H");
}

}  // namespace
}  // namespace vrddram::bench
