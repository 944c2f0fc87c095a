/**
 * vrdlint self-tests: each rule family is pinned against a fixture
 * file with known violations (positive cases) and allowlisted or
 * clean variants (negative cases). The fixtures live in
 * tests/vrdlint/fixtures/ and are excluded from the `vrdlint_tree`
 * gate via tools/vrdlint/vrdlint.conf.
 */
#include "vrdlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using vrdlint::Config;
using vrdlint::Diagnostic;

std::filesystem::path FixtureDir() { return VRDLINT_FIXTURE_DIR; }

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixtureDir() / name);
  EXPECT_TRUE(in) << "missing fixture: " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// "line: rule" for every diagnostic, in emission order — the shape
/// the per-rule expectations below pin exactly.
std::vector<std::string> Locations(const std::vector<Diagnostic>& found) {
  std::vector<std::string> out;
  out.reserve(found.size());
  for (const Diagnostic& d : found) {
    out.push_back(std::to_string(d.line) + ": " + d.rule);
  }
  return out;
}

std::vector<Diagnostic> LintFixture(const std::string& name,
                                    const Config& config = Config()) {
  return vrdlint::LintSource(name, ReadFixture(name), config);
}

TEST(VrdlintBannedApi, FlagsEveryBannedCallAndHonorsWallClockAllow) {
  const std::vector<Diagnostic> found = LintFixture("banned_api.cc");
  // Lines 11 and 13 read clocks under allow(wall-clock) (trailing and
  // standalone-comment forms) and must NOT appear here.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{
                "18: banned-api",  // std::random_device
                "19: banned-api",  // srand
                "19: banned-api",  // time
                "20: banned-api",  // rand
                "21: banned-api",  // system_clock::now
            }));
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].ToString(),
            "banned_api.cc:18: banned-api: std::random_device is "
            "nondeterministic; construct vrddram::Rng from a seed "
            "expression");
}

TEST(VrdlintUnorderedIteration, FlagsRawRangeForOnly) {
  const std::vector<Diagnostic> found =
      LintFixture("unordered_iteration.cc");
  // The SortedByKey() launder (line 18) and the annotated loop
  // (line 28) are legal; only the raw range-for fires.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{"10: unordered-iteration"}));
}

TEST(VrdlintRngDiscipline, FlagsNonSeedConstructionAndMemberInit) {
  const std::vector<Diagnostic> found =
      LintFixture("rng_construction.cc");
  // Literal, *seed*-named, and MixSeed constructions pass; the
  // annotated one (line 23) passes; the positional-arithmetic local
  // (line 16) and member initializer (line 30) fire.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{"16: rng-discipline",
                                      "30: rng-discipline"}));
}

TEST(VrdlintCatchAllSwallow, FlagsSwallowingHandlersOnly) {
  const std::vector<Diagnostic> found = LintFixture("catch_all.cc");
  // The rethrow (line 26), typed conversion (line 34),
  // current_exception capture (line 42), typed handler (line 50) and
  // annotated handler (line 57) are all legal; only the two handlers
  // that silently swallow fire.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{"10: catch-all-swallow",
                                      "18: catch-all-swallow"}));
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found[0].message.find("swallows the exception"),
            std::string::npos);
}

TEST(VrdlintCampaignDiscipline, FlagsDirectCallsUnderBenchOnly) {
  const std::string text = ReadFixture("bench/campaign_discipline.cc");
  const std::vector<Diagnostic> found = vrdlint::LintSource(
      "bench/campaign_discipline.cc", text, Config());
  // RunCampaignCached (line 19), the annotated call (line 22), and the
  // function-pointer mention (line 24) are all legal; only the two
  // direct calls fire.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{"9: campaign-discipline",
                                      "14: campaign-discipline"}));
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found[0].message.find("RunCampaignCached"),
            std::string::npos);
}

TEST(VrdlintCampaignDiscipline, OnlyAppliesToTheBenchLayer) {
  const std::string text = ReadFixture("bench/campaign_discipline.cc");
  // The same source outside bench/ is executor plumbing, where calling
  // RunCampaign is the whole point.
  EXPECT_TRUE(
      vrdlint::LintSource("src/core/campaign_cache.cc", text, Config())
          .empty());
  // Conf-level exemption, as vrdlint.conf grants the throughput
  // microbenchmark.
  Config config;
  config.allow_paths["campaign-discipline"] = {"bench/perf_throughput"};
  EXPECT_TRUE(
      vrdlint::LintSource("bench/perf_throughput.cc", text, config)
          .empty());
}

TEST(VrdlintKernelAllocation, FlagsGrowthAndHeapInKernelPathsOnly) {
  Config config;
  config.kernel_paths = {"kernel_allocation"};
  const std::vector<Diagnostic> found =
      LintFixture("kernel_allocation.cc", config);
  // The reserve-paired push_back (line 15) and the annotated
  // emplace_back (line 20) are legal; the bare new, make_unique,
  // unreserved push_back, and resize fire.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{
                "8: kernel-allocation",
                "9: kernel-allocation",
                "11: kernel-allocation",
                "17: kernel-allocation",
            }));
  ASSERT_EQ(found.size(), 4u);
  EXPECT_NE(found[2].message.find("'grown.push_back' with no earlier "
                                  "'grown.reserve(...)'"),
            std::string::npos);
  // The same source outside the configured kernel paths is
  // unconstrained: the rule is opt-in per file.
  EXPECT_TRUE(LintFixture("kernel_allocation.cc").empty());
}

TEST(VrdlintKernelAllocation, KernelPathConfigKeyDesignatesFiles) {
  Config config;
  std::string error;
  ASSERT_TRUE(vrdlint::ParseConfigText(
      "[kernel-allocation]\nkernel-path = src/vrd/trap_engine.cc\n",
      &config, &error))
      << error;
  EXPECT_EQ(config.kernel_paths,
            (std::vector<std::string>{"src/vrd/trap_engine.cc"}));
  const std::string source =
      "void Hot(std::vector<int>& v) {\n"
      "  v.push_back(1);\n"
      "}\n";
  EXPECT_EQ(
      Locations(vrdlint::LintSource("src/vrd/trap_engine.cc", source,
                                    config)),
      (std::vector<std::string>{"2: kernel-allocation"}));
  EXPECT_TRUE(
      vrdlint::LintSource("src/core/campaign.cc", source, config).empty());
}

TEST(VrdlintHeaderHygiene, FlagsMissingGuardAndUsingNamespace) {
  EXPECT_EQ(Locations(LintFixture("header_bad.h")),
            (std::vector<std::string>{"1: header-hygiene",
                                      "5: header-hygiene"}));
  EXPECT_TRUE(LintFixture("header_ok.h").empty());
}

TEST(VrdlintTree, PairedHeaderRevealsUnorderedMembers) {
  // paired.cc iterates a member whose unordered declaration lives in
  // paired.h: invisible to the single-file scan, caught by the tree
  // scan's header pairing.
  Config config;
  config.scan_dirs = {"paired"};
  EXPECT_TRUE(
      vrdlint::LintSource("paired/paired.cc",
                          ReadFixture("paired/paired.cc"), config)
          .empty());
  const std::vector<Diagnostic> found =
      vrdlint::LintTree(FixtureDir().string(), config);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].file, "paired/paired.cc");
  EXPECT_EQ(found[0].line, 8u);
  EXPECT_EQ(found[0].rule, "unordered-iteration");
}

TEST(VrdlintTree, ExcludeSkipsPaths) {
  Config config;
  config.scan_dirs = {"paired"};
  config.exclude_paths = {"paired.cc"};
  EXPECT_TRUE(vrdlint::LintTree(FixtureDir().string(), config).empty());
  const std::vector<std::string> files =
      vrdlint::CollectFiles(FixtureDir().string(), config);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], "paired/paired.h");
}

TEST(VrdlintConfig, AllowPathSuppressesRuleByPathFragment) {
  Config config;
  config.allow_paths["banned-api"] = {"banned_api"};
  EXPECT_TRUE(LintFixture("banned_api.cc", config).empty());
  // Other rules are unaffected by a banned-api allow-path.
  EXPECT_FALSE(LintFixture("rng_construction.cc", config).empty());
}

TEST(VrdlintConfig, ParsesSectionsKeysAndComments) {
  Config config;
  std::string error;
  const std::string text =
      "# comment\n"
      "scan = src\n"
      "scan = tools\n"
      "exclude = fixtures\n"
      "\n"
      "[banned-api]\n"
      "allow-path = bench/legacy\n"
      "[rng-discipline]\n"
      "seed-call = DeriveSeed\n"
      "[unordered-iteration]\n"
      "ordering-call = StableOrder\n";
  ASSERT_TRUE(vrdlint::ParseConfigText(text, &config, &error)) << error;
  EXPECT_EQ(config.scan_dirs,
            (std::vector<std::string>{"src", "tools"}));
  EXPECT_EQ(config.exclude_paths,
            (std::vector<std::string>{"fixtures"}));
  EXPECT_EQ(config.allow_paths.at("banned-api"),
            (std::vector<std::string>{"bench/legacy"}));
  // Additions extend the built-in defaults.
  EXPECT_NE(std::find(config.seed_calls.begin(), config.seed_calls.end(),
                      "DeriveSeed"),
            config.seed_calls.end());
  EXPECT_NE(std::find(config.seed_calls.begin(), config.seed_calls.end(),
                      "MixSeed"),
            config.seed_calls.end());
  EXPECT_NE(std::find(config.ordering_calls.begin(),
                      config.ordering_calls.end(), "StableOrder"),
            config.ordering_calls.end());
}

TEST(VrdlintConfig, RejectsMalformedInput) {
  Config config;
  std::string error;
  EXPECT_FALSE(vrdlint::ParseConfigText("bogus\n", &config, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(
      vrdlint::ParseConfigText("mystery = value\n", &config, &error));
  EXPECT_FALSE(vrdlint::ParseConfigText("[banned-api\n", &config, &error));
  EXPECT_FALSE(vrdlint::ParseConfigText(
      "[banned-api]\nseed-call = X\n", &config, &error));
  // A section must name a rule family: a typo or a deleted family
  // would otherwise parse fine and silently suppress nothing.
  EXPECT_FALSE(vrdlint::ParseConfigText(
      "[banned-apii]\nallow-path = x\n", &config, &error));
  EXPECT_EQ(error, "config line 1: unknown section [banned-apii]");
  EXPECT_FALSE(vrdlint::ParseConfigText(
      "scan = src\n[lock-discipline]\n", &config, &error));
  EXPECT_EQ(error, "config line 2: unknown section [lock-discipline]");
}

TEST(VrdlintConfig, CustomSeedCallExtendsDiscipline) {
  Config config;
  std::string error;
  ASSERT_TRUE(vrdlint::ParseConfigText(
      "[rng-discipline]\nseed-call = DeriveStream\n", &config, &error))
      << error;
  const std::string source =
      "void f() {\n"
      "  Rng a(DeriveStream(device, row));\n"
      "  Rng b(device + row);\n"
      "}\n";
  const std::vector<Diagnostic> found =
      vrdlint::LintSource("custom.cc", source, config);
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{"3: rng-discipline"}));
}

}  // namespace
