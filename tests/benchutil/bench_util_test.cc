#include "common/bench_util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/experiment.h"

namespace vrddram::bench {
namespace {

/// Flags parsed against a schema that declares every key in `args`.
Flags MakeFlags(const std::vector<std::string>& args) {
  std::vector<FlagSpec> schema;
  for (const std::string& arg : args) {
    schema.push_back({arg.substr(2, arg.find('=') - 2), "", ""});
  }
  return Flags(args, schema);
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags flags({}, {{"rows", "7", ""},
                         {"ber", "1.5", ""},
                         {"device", "H1", ""},
                         {"rig", "true", ""}});
  EXPECT_EQ(flags.GetUint("rows"), 7u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ber"), 1.5);
  EXPECT_EQ(flags.GetString("device"), "H1");
  EXPECT_TRUE(flags.GetBool("rig"));
}

TEST(FlagsTest, ParsesKeyValuePairs) {
  const Flags flags = MakeFlags(
      {"--rows=42", "--ber=0.25", "--device=M3", "--rig=false"});
  EXPECT_EQ(flags.GetUint("rows"), 42u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ber"), 0.25);
  EXPECT_EQ(flags.GetString("device"), "M3");
  EXPECT_FALSE(flags.GetBool("rig"));
}

TEST(FlagsTest, BareFlagIsTrue) {
  const Flags flags = MakeFlags({"--full"});
  EXPECT_TRUE(flags.GetBool("full"));
}

/// The FatalError message of `get`, or "" if it did not throw.
template <typename Get>
std::string FatalMessage(Get get) {
  try {
    get();
  } catch (const FatalError& error) {
    return error.what();
  }
  return "";
}

TEST(FlagsTest, RejectsNonNumericUnsigned) {
  const Flags flags = MakeFlags({"--threads=abc", "--rows=12x"});
  const std::string message =
      FatalMessage([&] { flags.GetUint("threads"); });
  EXPECT_NE(message.find("--threads=abc"), std::string::npos) << message;
  EXPECT_NE(message.find("unsigned"), std::string::npos) << message;
  EXPECT_THROW(flags.GetUint("rows"), FatalError);
}

TEST(FlagsTest, RejectsSignedAndOutOfRangeUnsigned) {
  const Flags flags =
      MakeFlags({"--measurements=-1", "--plus=+5", "--space= 5",
                 "--big=18446744073709551616", "--max=18446744073709551615"});
  EXPECT_NE(FatalMessage([&] { flags.GetUint("measurements"); })
                .find("--measurements=-1"),
            std::string::npos);
  EXPECT_THROW(flags.GetUint("plus"), FatalError);
  EXPECT_THROW(flags.GetUint("space"), FatalError);
  EXPECT_THROW(flags.GetUint("big"), FatalError);
  EXPECT_EQ(flags.GetUint("max"), 18446744073709551615u);
}

TEST(FlagsTest, RejectsMalformedAndNonFiniteDoubles) {
  const Flags flags = MakeFlags(
      {"--ber=0.5x", "--huge=1e999", "--nan=nan", "--empty=", "--neg=-2.5"});
  EXPECT_NE(FatalMessage([&] { flags.GetDouble("ber"); })
                .find("--ber=0.5x"),
            std::string::npos);
  EXPECT_THROW(flags.GetDouble("huge"), FatalError);
  EXPECT_THROW(flags.GetDouble("nan"), FatalError);
  EXPECT_THROW(flags.GetDouble("empty"), FatalError);
  EXPECT_DOUBLE_EQ(flags.GetDouble("neg"), -2.5);
}

TEST(FlagsTest, BoolAcceptsOnlyTheEnumeratedSpellings) {
  const Flags flags =
      MakeFlags({"--rig=ture", "--a=true", "--b=1", "--c=false", "--d=0"});
  const std::string message = FatalMessage([&] { flags.GetBool("rig"); });
  EXPECT_NE(message.find("--rig=ture"), std::string::npos) << message;
  EXPECT_NE(message.find("true, false, 1, 0"), std::string::npos)
      << message;
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_TRUE(flags.GetBool("b"));
  EXPECT_FALSE(flags.GetBool("c"));
  EXPECT_FALSE(flags.GetBool("d"));
}

/**
 * Every registered experiment's schema defaults survive strict parsing.
 * Campaign builders read their knobs through the typed getters, so
 * building each campaign from pure defaults exercises the real
 * getter-per-flag pairing; every numeric- or bool-looking default must
 * also parse as such.
 */
TEST(FlagsTest, EveryExperimentSchemaDefaultParses) {
  const std::vector<const ExperimentSpec*> specs =
      ExperimentRegistry::Instance().All();
  ASSERT_FALSE(specs.empty());
  for (const ExperimentSpec* spec : specs) {
    SCOPED_TRACE(spec->name);
    const Flags flags({}, spec->flags);
    if (spec->build_campaign) {
      EXPECT_NO_THROW(spec->build_campaign(flags));
    }
    for (const FlagSpec& flag : spec->flags) {
      SCOPED_TRACE(flag.name + "=" + flag.default_value);
      const std::string& value = flag.default_value;
      if (value == "true" || value == "false") {
        EXPECT_NO_THROW(flags.GetBool(flag.name));
      } else if (!value.empty() &&
                 (std::isdigit(static_cast<unsigned char>(value[0])) ||
                  value[0] == '-' || value[0] == '.')) {
        EXPECT_NO_THROW(flags.GetDouble(flag.name));
        if (value.find_first_not_of("0123456789") == std::string::npos) {
          EXPECT_NO_THROW(flags.GetUint(flag.name));
        }
      }
    }
  }
}

TEST(DevicesTest, ResolvesAliases) {
  EXPECT_EQ(ResolveDevices("all").size(), 25u);
  EXPECT_EQ(ResolveDevices("ddr4").size(), 21u);
  EXPECT_EQ(ResolveDevices("hbm2").size(), 4u);
}

TEST(DevicesTest, ResolvesCommaSeparatedList) {
  const auto devices = ResolveDevices("H1,M2,Chip0");
  ASSERT_EQ(devices.size(), 3u);
  EXPECT_EQ(devices[0], "H1");
  EXPECT_EQ(devices[2], "Chip0");
  EXPECT_THROW(ResolveDevices(""), FatalError);
}

TEST(DevicesTest, RejectsUnknownRepeatedAndEmptyListsNamingTheFlag) {
  const std::string unknown = FatalMessage([] { ResolveDevices("M1,XYZ"); });
  EXPECT_NE(unknown.find("--devices=M1,XYZ"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("unknown device 'XYZ'"), std::string::npos)
      << unknown;
  const std::string twice = FatalMessage([] { ResolveDevices("M1,S2,M1"); });
  EXPECT_NE(twice.find("--devices=M1,S2,M1"), std::string::npos) << twice;
  EXPECT_NE(twice.find("device 'M1' is listed twice"), std::string::npos)
      << twice;
  const std::string scan = FatalMessage([] { ResolveDevices("Q9", "scan"); });
  EXPECT_NE(scan.find("--scan=Q9"), std::string::npos) << scan;
  const std::string empty = FatalMessage([] { ResolveDevices(",,"); });
  EXPECT_NE(empty.find("--devices=,,: no devices"), std::string::npos)
      << empty;
}

TEST(SingleRowTest, CollectsDeterministicSeries) {
  SingleRowSeries a;
  SingleRowSeries b;
  ASSERT_TRUE(CollectSingleRowSeries("S2", 50, 1, &a));
  ASSERT_TRUE(CollectSingleRowSeries("S2", 50, 1, &b));
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.series.size(), 50u);
}

TEST(SingleRowTest, MemoizedAnalysisMatchesCollectThenAnalyze) {
  ClearSingleRowAnalyses();
  // S2 twice: a repeated device is measured once and reported twice.
  const std::vector<std::string> devices = {"S2", "M1", "S2"};
  const auto cold = AnalyzeSingleRowSeries(devices, 200, 1, 2);
  // M1 comes from the memo; H1 is measured fresh.
  const auto warm = AnalyzeSingleRowSeries({"M1", "H1"}, 200, 1, 2);
  ASSERT_EQ(cold.size(), 3u);
  ASSERT_EQ(warm.size(), 2u);
  const std::vector<std::pair<std::string, const SingleRowAnalysis*>>
      entries = {{"S2", &*cold[0]}, {"M1", &*cold[1]}, {"S2", &*cold[2]},
                 {"M1", &*warm[0]}, {"H1", &*warm[1]}};
  for (const auto& [device, entry] : entries) {
    SingleRowSeries data;
    ASSERT_TRUE(CollectSingleRowSeries(device, 200, 1, &data)) << device;
    const core::SeriesAnalysis direct = core::AnalyzeSeries(data.series);
    EXPECT_EQ(entry->row, data.row) << device;
    EXPECT_EQ(entry->analysis.box.median, direct.box.median) << device;
    EXPECT_EQ(entry->analysis.cv, direct.cv) << device;
    EXPECT_EQ(entry->analysis.run_lengths.counts, direct.run_lengths.counts)
        << device;
    EXPECT_EQ(entry->analysis.histogram.bins.size(),
              direct.histogram.bins.size())
        << device;
  }
  ClearSingleRowAnalyses();
}

/// A campaign record of `device` whose measurements are `series`.
core::SeriesRecord MakeRecord(const std::string& device,
                              const std::vector<std::int64_t>& series) {
  core::SeriesRecord record;
  record.device = device;
  record.flips = core::BuildSortedFlips(series);
  return record;
}

/// N = 5 before N = 1, so a slot is found by position, not by N.
core::MinRdtSettings FiveThenOne() {
  core::MinRdtSettings settings;
  settings.sample_sizes = {5, 1};
  return settings;
}

std::string PrintTable(const TextTable& table) {
  std::ostringstream os;
  table.Print(os);
  return os.str();
}

TEST(GroupNormMinsTest, GroupsInKeyOrderWithValuesInRecordOrder) {
  // {10, 30}: one draw finds the minimum half the time, so E[min]/min is
  // 2 at N = 1 and (1 - 2^-5) + 3 * 2^-5 = 1.0625 at N = 5. {20} has one
  // value: 1 at every N.
  core::CampaignResult result;
  result.records = {MakeRecord("B", {10, 30}), MakeRecord("A", {20}),
                    MakeRecord("B", {20})};
  const auto groups =
      GroupNormMins(result, FiveThenOne(),
                    [](const core::SeriesRecord& r) { return r.device; });
  ASSERT_EQ(groups.size(), 2u);
  auto it = groups.begin();
  EXPECT_EQ(it->first, "A");
  EXPECT_EQ(it->second,
            (std::vector<std::vector<double>>{{1.0}, {1.0}}));
  ++it;
  EXPECT_EQ(it->first, "B");
  ASSERT_EQ(it->second.size(), 2u);
  ASSERT_EQ(it->second[0].size(), 2u);
  EXPECT_DOUBLE_EQ(it->second[0][0], 1.0625);  // N = 5, first B record
  EXPECT_DOUBLE_EQ(it->second[0][1], 1.0);
  ASSERT_EQ(it->second[1].size(), 2u);
  EXPECT_DOUBLE_EQ(it->second[1][0], 2.0);  // N = 1
  EXPECT_DOUBLE_EQ(it->second[1][1], 1.0);
}

TEST(GroupNormMinsTest, RecordWithoutFlipsThrows) {
  core::CampaignResult result;
  result.records = {MakeRecord("A", {20}), MakeRecord("B", {-1, -1})};
  EXPECT_THROW(GroupNormMins(result, FiveThenOne(),
                             [](const core::SeriesRecord& r) {
                               return r.device;
                             }),
               FatalError);
}

TEST(GroupNormMinsTest, AddNormMinRowsWritesOneRowPerNAndReturnsN1Median) {
  const core::MinRdtSettings settings = FiveThenOne();
  // Slot 0 is N = 5, slot 1 is N = 1.
  const std::vector<std::vector<double>> per_n = {{1.0625, 1.0, 1.5},
                                                  {2.0, 1.0, 1.25}};
  TextTable table({"group", "key", "N", "median", "max", "mean"});
  EXPECT_DOUBLE_EQ(AddNormMinRows(table, {"A", "x"}, per_n, settings), 1.25);

  TextTable expected({"group", "key", "N", "median", "max", "mean"});
  expected.AddRow({"A", "x", "5", "1.0625", "1.5000", "1.1875"});
  expected.AddRow({"A", "x", "1", "1.2500", "2.0000", "1.4167"});
  EXPECT_EQ(PrintTable(table), PrintTable(expected));

  core::MinRdtSettings no_n1;
  no_n1.sample_sizes = {5};
  TextTable unused({"N", "median", "max", "mean"});
  EXPECT_TRUE(std::isnan(AddNormMinRows(unused, {}, {{1.0}}, no_n1)));
}

TEST(BoxTest, AddBoxRowPutsTheLabelsFirst) {
  TextTable table({"a", "b", "min", "Q1", "median", "Q3", "max", "mean"});
  const stats::BoxStats box{.min = 1.0, .q1 = 1.5, .median = 2.25,
                            .q3 = 3.0, .max = 4.0, .mean = 2.4};
  AddBoxRow(table, {"M1", "50 degC"}, box, 2);
  TextTable expected(
      {"a", "b", "min", "Q1", "median", "Q3", "max", "mean"});
  expected.AddRow(
      {"M1", "50 degC", "1.00", "1.50", "2.25", "3.00", "4.00", "2.40"});
  EXPECT_EQ(PrintTable(table), PrintTable(expected));
}

TEST(BoxTest, WrapsComputeBoxStats) {
  const stats::BoxStats box = Box({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(box.median, 2.5);
}

}  // namespace
}  // namespace vrddram::bench
