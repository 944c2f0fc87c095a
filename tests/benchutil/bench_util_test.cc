#include "common/bench_util.h"

#include <gtest/gtest.h>

#include <cctype>
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

TEST(BoxTest, WrapsComputeBoxStats) {
  const stats::BoxStats box = Box({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(box.median, 2.5);
}

}  // namespace
}  // namespace vrddram::bench
