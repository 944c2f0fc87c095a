/**
 * vrdlint v2 self-tests: the symbol-aware rule families
 * (float-determinism, scope-aware kernel-allocation) pinned against
 * fixtures, plus the SARIF writer's schema shape and its line-content
 * fingerprints.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sarif.h"
#include "vrdlint.h"

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

TEST(VrdlintFloatDeterminism, FlagsContractableShapesInFloatPaths) {
  Config config;
  config.float_paths = {"float_determinism.cc"};
  const std::vector<Diagnostic> found =
      LintFixture("float_determinism.cc", config);
  // Line 11: a*b + c. Line 15: acc += w*x. The split/paren-depth/
  // integer/allowed variants stay clean.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{
                "11: float-determinism",
                "15: float-determinism",
            }));
  // Outside a configured float-path the rule does not apply.
  EXPECT_TRUE(LintFixture("float_determinism.cc").empty());
}

TEST(VrdlintKernelAllocation, ReserveInAnotherScopeExcusesGrowth) {
  Config config;
  config.kernel_paths = {"kernel_allocation_scoped.cc"};
  const std::vector<Diagnostic> found =
      LintFixture("kernel_allocation_scoped.cc", config);
  // Push() grows samples_ which the constructor (a different function
  // scope, later in the file) reserves: legal. Grow()'s same-scope
  // reserve comes after the growth: still flagged.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{"20: kernel-allocation"}));
}

TEST(VrdlintSarif, ReportHasSchemaRulesAndFingerprints) {
  std::vector<Diagnostic> diags;
  diags.push_back(Diagnostic{"src/a.cc", 7, "rng-discipline",
                             "message with \"quotes\" and\nnewline",
                             0x0123456789abcdefULL});
  diags.push_back(
      Diagnostic{"src/b.cc", 3, "banned-api", "plain", 0xffULL});
  const std::string sarif = vrdlint::SarifReport(diags);
  EXPECT_NE(
      sarif.find(
          "\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""),
      std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"vrdlint\""), std::string::npos);
  // Rule table is sorted and results reference it by index.
  EXPECT_NE(sarif.find("{\"id\": \"banned-api\"}"), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"rng-discipline\"}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"rng-discipline\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("\"uriBaseId\": \"SRCROOT\""), std::string::npos);
  EXPECT_NE(sarif.find("\"vrdlintContentHash\": \"0123456789abcdef\""),
            std::string::npos);
  // JSON escaping: the quote and newline must not appear raw.
  EXPECT_NE(sarif.find("message with \\\"quotes\\\" and\\nnewline"),
            std::string::npos);
}

TEST(VrdlintSarif, ContentHashIsTrimInvariantAndContentSensitive) {
  EXPECT_EQ(vrdlint::HashLineContent("  a * b + c;  "),
            vrdlint::HashLineContent("a * b + c;"));
  EXPECT_NE(vrdlint::HashLineContent("a * b + c;"),
            vrdlint::HashLineContent("a * b - c;"));
}

}  // namespace
