/**
 * In-process tests of the vrdrepro driver: command dispatch, flag
 * forwarding, and the golden cold/warm campaign-cache property — a
 * warm run must produce byte-identical output with zero campaign
 * executions, at any worker count.
 */
#include "common/driver.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace vrddram::bench {
namespace {

struct DriverRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

DriverRun Drive(std::vector<std::string> args) {
  std::vector<const char*> argv = {"vrdrepro"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  std::ostringstream out;
  std::ostringstream err;
  DriverRun run;
  run.exit_code = RunDriver(static_cast<int>(argv.size()), argv.data(),
                            out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

TEST(DriverTest, ListShowsEveryExperiment) {
  const DriverRun run = Drive({"list"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("fig01_rdt_series"), std::string::npos);
  EXPECT_NE(run.out.find("table07_module_summary"), std::string::npos);
  EXPECT_NE(run.out.find("future_ddr5"), std::string::npos);
}

TEST(DriverTest, DescribePrintsSchemaAndSmokeLine) {
  const DriverRun run = Drive({"describe", "fig10_data_pattern"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("--measurements=1000"), std::string::npos);
  EXPECT_NE(run.out.find("--threads=0"), std::string::npos);
  EXPECT_NE(run.out.find("smoke: --devices=M1,S2"), std::string::npos);
}

TEST(DriverTest, UnknownCommandAndExperimentFail) {
  EXPECT_EQ(Drive({"frobnicate"}).exit_code, 2);
  const DriverRun run = Drive({"run", "no_such_experiment"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown experiment"), std::string::npos);
  EXPECT_NE(run.err.find("fig01_rdt_series"), std::string::npos);
}

TEST(DriverTest, UnknownForwardedFlagAbortsWithTheRealSchema) {
  const DriverRun run =
      Drive({"run", "fig10_data_pattern", "--bogus=1"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown flag --bogus"), std::string::npos);
  EXPECT_NE(run.err.find("--measurements=1000"), std::string::npos);
  EXPECT_NE(run.err.find("victim rows per device"), std::string::npos);
}

TEST(DriverTest, RemovedItersFlagIsRejected) {
  // The min-RDT statistics are exact; there is no iteration count to
  // set, and an old command line must fail loudly, not run silently.
  const DriverRun run =
      Drive({"run", "fig08_min_rdt_probability", "--iters=10"});
  EXPECT_NE(run.exit_code, 0);
  EXPECT_NE(run.err.find("unknown flag --iters"), std::string::npos);
}

TEST(DriverTest, RunRequiresNamesOrAllButNotBoth) {
  EXPECT_EQ(Drive({"run"}).exit_code, 2);
  EXPECT_EQ(Drive({"run", "--all", "fig01_rdt_series"}).exit_code, 2);
}

TEST(DriverTest, WarmCacheRunsAreByteIdenticalAtAnyThreads) {
  const std::string cache_dir =
      (std::filesystem::path(::testing::TempDir()) /
       "vrddram_driver_cache")
          .string();
  std::filesystem::remove_all(cache_dir);
  const std::vector<std::string> base = {
      "run",           "fig10_data_pattern",
      "--smoke",       "--rows=3",
      "--measurements=60",
      "--cache_dir=" + cache_dir};

  auto with_threads = [&](const std::string& threads) {
    std::vector<std::string> args = base;
    args.push_back("--threads=" + threads);
    return args;
  };

  // Cold at 1 worker; a fresh cache-less run at 8 workers; warm runs
  // at both worker counts.
  const DriverRun cold = Drive(with_threads("1"));
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_NE(cold.err.find("cache hits=0 misses=1 stores=1"),
            std::string::npos)
      << cold.err;

  std::vector<std::string> fresh_args = with_threads("8");
  fresh_args.push_back("--no-cache");
  const DriverRun fresh = Drive(fresh_args);
  ASSERT_EQ(fresh.exit_code, 0) << fresh.err;
  EXPECT_EQ(fresh.err.find("campaign-cache"), std::string::npos);

  const DriverRun warm1 = Drive(with_threads("1"));
  const DriverRun warm8 = Drive(with_threads("8"));
  ASSERT_EQ(warm1.exit_code, 0) << warm1.err;
  ASSERT_EQ(warm8.exit_code, 0) << warm8.err;

  EXPECT_EQ(cold.out, fresh.out);
  EXPECT_EQ(cold.out, warm1.out);
  EXPECT_EQ(cold.out, warm8.out);
  EXPECT_NE(warm1.err.find("cache hits=1 misses=0 stores=0"),
            std::string::npos)
      << warm1.err;
  EXPECT_NE(warm8.err.find("cache hits=1 misses=0 stores=0"),
            std::string::npos)
      << warm8.err;
  std::filesystem::remove_all(cache_dir);
}

TEST(DriverTest, FanOutExperimentsByteIdenticalAtAnyThreads) {
  // The experiments that fan out on the shard executor outside a
  // campaign: fig01's scan (its smoke args skip it, so it is named
  // here), fig03/04/05's per-device series, fig07's per-record
  // analyses, fig14's memsim runs and fig16's guardband devices.
  const std::vector<std::vector<std::string>> runs = {
      {"fig01_rdt_series", "--scan=M1,S2"},
      {"fig03_rdt_distribution"},
      {"fig04_rdt_histograms"},
      {"fig05_run_lengths"},
      {"fig07_cv_scurve"},
      {"fig14_mitigation_overhead"},
      {"fig16_guardband_bitflips"},
  };
  for (const std::vector<std::string>& extra : runs) {
    auto drive = [&](const std::string& threads) {
      std::vector<std::string> args = {"run", "--smoke", "--no-cache",
                                       "--threads=" + threads};
      args.insert(args.end(), extra.begin(), extra.end());
      return Drive(args);
    };
    const DriverRun serial = drive("1");
    const DriverRun parallel = drive("8");
    ASSERT_EQ(serial.exit_code, 0) << serial.err;
    ASSERT_EQ(parallel.exit_code, 0) << parallel.err;
    EXPECT_NE(serial.out.find("CHECK "), std::string::npos) << extra[0];
    EXPECT_EQ(serial.out, parallel.out) << extra[0];
    EXPECT_EQ(serial.err, parallel.err) << extra[0];
  }
}

TEST(DriverTest, SingleRowAnalysesSharedAcrossExperimentsMatchRunsAlone) {
  // One run: fig04 and fig05 read the analyses fig03 memoized. Three
  // runs: each experiment measures its devices cold.
  const std::vector<std::string> experiments = {
      "fig03_rdt_distribution", "fig04_rdt_histograms",
      "fig05_run_lengths"};
  const std::vector<std::string> flags = {
      "--no-cache", "--devices=M1,S2,Chip1", "--measurements=2000",
      "--threads=2"};
  std::vector<std::string> together = {"run"};
  together.insert(together.end(), experiments.begin(), experiments.end());
  together.insert(together.end(), flags.begin(), flags.end());
  const DriverRun shared = Drive(together);
  ASSERT_EQ(shared.exit_code, 0) << shared.err;

  DriverRun alone;
  for (const std::string& experiment : experiments) {
    std::vector<std::string> args = {"run", experiment};
    args.insert(args.end(), flags.begin(), flags.end());
    const DriverRun run = Drive(args);
    ASSERT_EQ(run.exit_code, 0) << experiment << ": " << run.err;
    alone.out += run.out;
    alone.err += run.err;
  }
  EXPECT_NE(shared.out.find("CHECK fig05."), std::string::npos);
  EXPECT_NE(shared.out.find("Histogram of M1"), std::string::npos);
  EXPECT_EQ(shared.out, alone.out);
  EXPECT_EQ(shared.err, alone.err);
}

/// Whitespace-separated field `column` of the first line after `banner`
/// in `text` whose first field is `device`; empty if there is none.
std::string FieldAfter(const std::string& text, const std::string& banner,
                       const std::string& device, std::size_t column) {
  const std::size_t at = text.find(banner);
  std::istringstream lines(at == std::string::npos ? "" : text.substr(at));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.starts_with(device + " ")) {
      std::istringstream fields(line);
      std::string field;
      for (std::size_t i = 0; i <= column; ++i) {
        fields >> field;
      }
      return field;
    }
  }
  return "";
}

TEST(DriverTest, Fig01ScanSharesTheSingleRowAnalysesItMeasures) {
  // fig01's --scan keys its analyses on the same (device, measurements,
  // seed) as fig03/04/05, so in one run fig01 fills the memo and the
  // other three read it. Each experiment run alone measures cold.
  const std::vector<std::string> experiments = {
      "fig01_rdt_series", "fig03_rdt_distribution", "fig04_rdt_histograms",
      "fig05_run_lengths"};
  const std::vector<std::string> flags = {"--no-cache", "--measurements=2000",
                                          "--threads=2"};
  const std::string scan = "--scan=M1,S2,Chip1";
  const std::string devices = "--devices=M1,S2,Chip1";
  std::vector<std::string> together = {"run"};
  together.insert(together.end(), experiments.begin(), experiments.end());
  together.insert(together.end(), flags.begin(), flags.end());
  together.push_back(scan);
  together.push_back(devices);
  const DriverRun shared = Drive(together);
  ASSERT_EQ(shared.exit_code, 0) << shared.err;

  // Alone, each experiment gets only the device flag it declares.
  DriverRun alone;
  for (const std::string& experiment : experiments) {
    std::vector<std::string> args = {"run", experiment};
    args.insert(args.end(), flags.begin(), flags.end());
    args.push_back(experiment == "fig01_rdt_series" ? scan : devices);
    const DriverRun run = Drive(args);
    ASSERT_EQ(run.exit_code, 0) << experiment << ": " << run.err;
    alone.out += run.out;
    alone.err += run.err;
  }
  EXPECT_NE(shared.out.find("CHECK fig01.worst_first_min_index"),
            std::string::npos);
  EXPECT_NE(shared.out.find("CHECK fig05."), std::string::npos);
  // The scan reads the very series fig03 plots: same minimum RDT.
  for (const std::string device : {"M1", "S2", "Chip1"}) {
    const std::string scan_min =
        FieldAfter(shared.out, "== Worst-case first-minimum", device, 3);
    EXPECT_FALSE(scan_min.empty()) << device;
    EXPECT_EQ(scan_min,
              FieldAfter(shared.out, "== Figure 3:", device, 1))
        << device;
  }
  EXPECT_EQ(shared.out, alone.out);
  EXPECT_EQ(shared.err, alone.err);
}

TEST(DriverTest, Fig07CsvToAnUnwritablePathNamesThePath) {
  const std::string csv =
      (std::filesystem::path(::testing::TempDir()) /
       "vrddram_no_such_dir" / "summary.csv")
          .string();
  std::filesystem::remove_all(std::filesystem::path(csv).parent_path());
  const DriverRun run =
      Drive({"run", "fig07_cv_scurve", "--smoke", "--no-cache",
             "--csv=" + csv});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("'" + csv + "'"), std::string::npos) << run.err;
  EXPECT_EQ(run.err.find("short write"), std::string::npos) << run.err;
}

TEST(DriverTest, Fig07ParameterCountsOutOfRangeNameTheFlag) {
  // Unchecked, 0 would run a zero-combination campaign and die on an
  // empty percentile, and 4 tAggOn levels would clamp silently to 3.
  for (const std::string flag : {"--patterns=0", "--tons=4", "--temps=0"}) {
    const DriverRun run =
        Drive({"run", "fig07_cv_scurve", "--smoke", "--no-cache", flag});
    EXPECT_EQ(run.exit_code, 2) << flag;
    EXPECT_NE(run.err.find("flag " + flag + ": expected 1-"),
              std::string::npos)
        << run.err;
    EXPECT_TRUE(run.out.empty()) << flag;
  }
}

TEST(DriverTest, CountsOutOfRangeNameTheFlag) {
  // fig14: --mixes=0 used to index an empty result vector and crash,
  // and --mixes=16 ran 15 mixes. ablation_security --rows=0 printed
  // "measured=0 of 0" and exited 0; --episodes=0 failed without naming
  // the flag. spatial_variation --rows=0 or 1 measures no row and
  // failed with "Percentile of empty series".
  const std::pair<const char*, const char*> cases[] = {
      {"fig14_mitigation_overhead", "--mixes=0"},
      {"fig14_mitigation_overhead", "--mixes=16"},
      {"fig14_mitigation_overhead", "--requests=0"},
      {"ablation_security", "--rows=0"},
      {"ablation_security", "--episodes=0"},
      {"spatial_variation", "--rows=0"},
      {"spatial_variation", "--rows=1"},
  };
  for (const auto& [name, flag] : cases) {
    const DriverRun run = Drive({"run", name, "--smoke", "--no-cache", flag});
    EXPECT_EQ(run.exit_code, 2) << name << " " << flag;
    EXPECT_NE(run.err.find(std::string("flag ") + flag + ": expected "),
              std::string::npos)
        << run.err;
    EXPECT_TRUE(run.out.empty()) << name << " " << flag;
  }
}

TEST(DriverTest, SpatialVariationWithNoFlippingRowNamesTheFlag) {
  // --rows=2 measures row 1 only, which has no weak cell on this
  // device and seed, so there is no RDT to take percentiles of.
  const DriverRun run =
      Drive({"run", "spatial_variation", "--no-cache", "--device=M0",
             "--seed=16", "--rows=2"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("flag --rows=2: expected at least one flipping row"),
            std::string::npos)
      << run.err;
  EXPECT_TRUE(run.out.empty());
}

TEST(DriverTest, OutDirWritesOneReportPerExperiment) {
  const std::string out_dir =
      (std::filesystem::path(::testing::TempDir()) /
       "vrddram_driver_out")
          .string();
  std::filesystem::remove_all(out_dir);
  const DriverRun direct = Drive({"run", "table01_population"});
  ASSERT_EQ(direct.exit_code, 0) << direct.err;

  const DriverRun filed = Drive(
      {"run", "table01_population", "--out_dir=" + out_dir});
  ASSERT_EQ(filed.exit_code, 0) << filed.err;
  EXPECT_TRUE(filed.out.empty());

  const std::string path =
      (std::filesystem::path(out_dir) / "table01_population.txt")
          .string();
  std::ifstream file(path);
  ASSERT_TRUE(file) << path;
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_EQ(contents.str(), direct.out);
  std::filesystem::remove_all(out_dir);
}

TEST(DriverTest, DirectoryFlagNamingAFileFailsWithExitTwo) {
  const std::string file =
      (std::filesystem::path(::testing::TempDir()) / "vrddram_driver_file")
          .string();
  std::ofstream(file) << "not a directory\n";
  // fig09 runs a campaign: the bad --cache_dir is refused before it
  // executes, so stderr holds no campaign-cache line.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"run", "table01_population", "--smoke",
                                 "--out_dir=" + file},
        std::vector<std::string>{"run", "fig09_density_die_rev", "--smoke",
                                 "--cache_dir=" + file}}) {
    const DriverRun run = Drive(args);
    const std::string& flag = args.back();
    EXPECT_EQ(run.exit_code, 2) << flag;
    EXPECT_TRUE(run.out.empty()) << flag;
    EXPECT_NE(run.err.find(flag + ": cannot create directory"),
              std::string::npos)
        << run.err;
    EXPECT_EQ(run.err.find("campaign-cache"), std::string::npos) << run.err;
  }
  std::filesystem::remove(file);
}

TEST(DriverTest, UnknownOrRepeatedDeviceFailsWithExitTwoBeforeAnyWork) {
  // table07 and fig08 run a campaign, fig03 measures single rows and
  // fig01 scans a device set: each refuses the list before it measures,
  // so neither a report line nor a shard summary is printed.
  for (const auto& [experiment, flag, token] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"table07_module_summary", "--devices=XYZ", "unknown device 'XYZ'"},
           {"table07_module_summary", "--devices=M1,M1",
            "device 'M1' is listed twice"},
           {"fig08_min_rdt_probability", "--devices=M1,S2,M1",
            "device 'M1' is listed twice"},
           {"fig03_rdt_distribution", "--devices=XYZ", "unknown device 'XYZ'"},
           {"fig01_rdt_series", "--scan=M1,XYZ", "unknown device 'XYZ'"}}) {
    const DriverRun run =
        Drive({"run", experiment, "--smoke", "--no-cache", flag});
    EXPECT_EQ(run.exit_code, 2) << experiment << ' ' << flag;
    EXPECT_TRUE(run.out.empty()) << run.out;
    EXPECT_NE(run.err.find(flag + ": " + token), std::string::npos)
        << run.err;
  }
}

}  // namespace
}  // namespace vrddram::bench
