#include "core/campaign.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"

namespace vrddram::core {
namespace {

TEST(CampaignTest, TOnResolution) {
  const dram::TimingParams t = dram::MakeDdr4_3200();
  EXPECT_EQ(ResolveTOn(TOnChoice::kMinTras, t), t.tRAS);
  EXPECT_EQ(ResolveTOn(TOnChoice::kTrefi, t), t.tREFI);
  EXPECT_EQ(ResolveTOn(TOnChoice::kNineTrefi, t), 9 * t.tREFI);
  EXPECT_EQ(ToString(TOnChoice::kMinTras), "min-tRAS");
  EXPECT_EQ(ToString(TOnChoice::kNineTrefi), "9xtREFI");
}

TEST(CampaignTest, UnknownTOnChoiceIsAUserError) {
  // An out-of-range enum typically arrives from a parsed flag or file,
  // so it reports as FatalError (bad input) with the offending value,
  // not PanicError (library bug).
  const dram::TimingParams t = dram::MakeDdr4_3200();
  const auto bogus = static_cast<TOnChoice>(250);
  try {
    ToString(bogus);
    FAIL() << "expected FatalError";
  } catch (const FatalError& error) {
    EXPECT_NE(std::string(error.what()).find("250"), std::string::npos);
  }
  EXPECT_THROW(ResolveTOn(bogus, t), FatalError);
}

TEST(CampaignTest, FormatShardStatusCoversEveryState) {
  ShardStatus status;
  EXPECT_EQ(FormatShardStatus(status), "ok");
  status.state = ShardState::kRetried;
  status.attempts = 3;
  EXPECT_EQ(FormatShardStatus(status), "retried-2");
  status.state = ShardState::kQuarantined;
  EXPECT_EQ(FormatShardStatus(status), "quarantined");
}

TEST(CampaignTest, RowSelectionPicksVulnerableRows) {
  auto device = vrd::BuildDevice("M1");
  auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
  ASSERT_NE(engine, nullptr);
  const auto rows = SelectVulnerableRows(
      *device, *engine, 0, /*per_region=*/4, /*scan_per_region=*/64,
      dram::DataPattern::kCheckered0, device->timing().tRAS);
  EXPECT_LE(rows.size(), 12u);
  EXPECT_GE(rows.size(), 3u);
  // Rows must come from the three regions of the bank.
  const dram::RowAddr bank_rows = device->org().rows_per_bank;
  bool in_first = false;
  bool in_last = false;
  for (const dram::RowAddr row : rows) {
    if (row < 64) {
      in_first = true;
    }
    if (row >= bank_rows - 64) {
      in_last = true;
    }
  }
  EXPECT_TRUE(in_first);
  EXPECT_TRUE(in_last);
}

TEST(CampaignTest, TinyCampaignProducesAllCombinations) {
  CampaignConfig config;
  config.devices = {"M1"};
  config.rows_per_device = 3;
  config.measurements = 60;
  config.patterns = {dram::DataPattern::kCheckered0,
                     dram::DataPattern::kRowstripe1};
  config.t_ons = {TOnChoice::kMinTras, TOnChoice::kTrefi};
  config.temperatures = {50.0, 80.0};
  config.scan_rows_per_region = 48;

  const CampaignResult result = RunCampaign(config);
  EXPECT_FALSE(result.records.empty());

  std::set<std::tuple<dram::RowAddr, int, int, int>> combos;
  for (const SeriesRecord& record : result.records) {
    EXPECT_EQ(record.device, "M1");
    EXPECT_EQ(record.flips.measurements(), 60u);
    EXPECT_GT(record.rdt_guess, 0u);
    combos.insert({record.row, static_cast<int>(record.pattern),
                   static_cast<int>(record.t_on),
                   static_cast<int>(record.temperature)});
  }
  // Rows x patterns x t_ons x temps, all distinct.
  EXPECT_EQ(combos.size(), result.records.size());
  // 3 rows selected (1 per region), up to 3*2*2*2 = 24 records.
  EXPECT_GE(result.records.size(), 8u);
}

TEST(CampaignTest, DeterministicAcrossRuns) {
  CampaignConfig config;
  config.devices = {"S2"};
  config.rows_per_device = 3;
  config.measurements = 20;
  config.scan_rows_per_region = 32;
  const CampaignResult a = RunCampaign(config);
  const CampaignResult b = RunCampaign(config);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].row, b.records[i].row);
    EXPECT_EQ(a.records[i].flips, b.records[i].flips);
  }
}

TEST(CampaignTest, MetadataCarriedThrough) {
  CampaignConfig config;
  config.devices = {"H1"};
  config.rows_per_device = 3;
  config.measurements = 20;
  config.scan_rows_per_region = 32;
  const CampaignResult result = RunCampaign(config);
  ASSERT_FALSE(result.records.empty());
  EXPECT_EQ(result.records[0].mfr, vrd::Manufacturer::kMfrH);
  EXPECT_EQ(result.records[0].density_gbit, 16u);
  EXPECT_EQ(result.records[0].die_rev, 'C');
}

TEST(CampaignTest, ParallelOutputBitIdenticalToSerial) {
  // The golden determinism contract of the parallel executor: every
  // worker count produces the same records, in the same order, with
  // the same series runs, bit for bit.
  CampaignConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 3;
  config.measurements = 25;
  config.t_ons = {TOnChoice::kMinTras, TOnChoice::kTrefi};
  config.temperatures = {50.0, 80.0};
  config.scan_rows_per_region = 32;

  config.threads = 1;
  const CampaignResult serial = RunCampaign(config);
  ASSERT_FALSE(serial.records.empty());

  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    config.threads = workers;
    const CampaignResult parallel = RunCampaign(config);
    ASSERT_EQ(parallel.records.size(), serial.records.size())
        << "workers=" << workers;
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      const SeriesRecord& a = serial.records[i];
      const SeriesRecord& b = parallel.records[i];
      EXPECT_EQ(a.device, b.device);
      EXPECT_EQ(a.mfr, b.mfr);
      EXPECT_EQ(a.standard, b.standard);
      EXPECT_EQ(a.density_gbit, b.density_gbit);
      EXPECT_EQ(a.die_rev, b.die_rev);
      EXPECT_EQ(a.row, b.row);
      EXPECT_EQ(a.pattern, b.pattern);
      EXPECT_EQ(a.t_on, b.t_on);
      EXPECT_EQ(a.temperature, b.temperature);
      EXPECT_EQ(a.rdt_guess, b.rdt_guess);
      ASSERT_EQ(a.flips, b.flips)
          << "workers=" << workers << " record=" << i;
    }
  }
}

TEST(CampaignTest, RecordsMergeInCanonicalOrder) {
  // Device-major, temperature-minor, regardless of which shard
  // finishes first.
  CampaignConfig config;
  config.devices = {"S2", "M1"};
  config.rows_per_device = 3;
  config.measurements = 15;
  config.temperatures = {80.0, 50.0};
  config.scan_rows_per_region = 32;
  config.threads = 4;
  const CampaignResult result = RunCampaign(config);
  ASSERT_FALSE(result.records.empty());
  std::vector<std::pair<std::string, int>> keys;
  for (const SeriesRecord& record : result.records) {
    const std::pair<std::string, int> key{
        record.device, static_cast<int>(record.temperature)};
    if (keys.empty() || keys.back() != key) {
      keys.push_back(key);
    }
  }
  // Each (device, temperature) block appears exactly once, in the
  // configured order.
  const std::vector<std::pair<std::string, int>> expected = {
      {"S2", 80}, {"S2", 50}, {"M1", 80}, {"M1", 50}};
  EXPECT_EQ(keys, expected);
}

TEST(CampaignTest, InvalidConfigsThrow) {
  CampaignConfig no_devices;
  EXPECT_THROW(RunCampaign(no_devices), FatalError);
  CampaignConfig no_measurements;
  no_measurements.devices = {"M1"};
  no_measurements.measurements = 0;
  EXPECT_THROW(RunCampaign(no_measurements), FatalError);
  // Rows are split evenly over three regions: 0, 2 and 10 used to run
  // 3, 3 and 9 rows without a word.
  for (const std::size_t rows : {0, 1, 2, 10}) {
    CampaignConfig uneven;
    uneven.devices = {"M1"};
    uneven.rows_per_device = rows;
    uneven.measurements = 10;
    try {
      RunCampaign(uneven);
      ADD_FAILURE() << "rows_per_device=" << rows << " accepted";
    } catch (const FatalError& e) {
      EXPECT_NE(std::string(e.what()).find("got " + std::to_string(rows)),
                std::string::npos)
          << e.what();
    }
  }
  // An empty parameter list would build devices and select rows for a
  // campaign of zero combinations.
  CampaignConfig valid;
  valid.devices = {"M1"};
  valid.measurements = 10;
  CampaignConfig no_patterns = valid;
  no_patterns.patterns.clear();
  EXPECT_THROW(RunCampaign(no_patterns), FatalError);
  CampaignConfig no_tons = valid;
  no_tons.t_ons.clear();
  EXPECT_THROW(RunCampaign(no_tons), FatalError);
  CampaignConfig no_temperatures = valid;
  no_temperatures.temperatures.clear();
  EXPECT_THROW(RunCampaign(no_temperatures), FatalError);
}

}  // namespace
}  // namespace vrddram::core

namespace vrddram::core {
namespace {

TEST(CampaignTest, ThermalRigPathSettlesEachTemperature) {
  CampaignConfig config;
  config.devices = {"S2"};
  config.rows_per_device = 3;
  config.measurements = 15;
  config.scan_rows_per_region = 32;
  config.temperatures = {50.0, 80.0};
  config.use_thermal_rig = true;
  const CampaignResult result = RunCampaign(config);
  ASSERT_FALSE(result.records.empty());
  std::set<int> temps;
  for (const SeriesRecord& record : result.records) {
    temps.insert(static_cast<int>(record.temperature));
  }
  EXPECT_EQ(temps, (std::set<int>{50, 80}));
}

TEST(CampaignTest, HbmDeviceDisablesOnDieEcc) {
  // The campaign must not silently measure through HBM2 on-die ECC
  // (§3.1); it disables the mode register before profiling.
  CampaignConfig config;
  config.devices = {"Chip2"};
  config.rows_per_device = 3;
  config.measurements = 15;
  config.scan_rows_per_region = 32;
  const CampaignResult result = RunCampaign(config);
  EXPECT_FALSE(result.records.empty());
}

}  // namespace
}  // namespace vrddram::core
