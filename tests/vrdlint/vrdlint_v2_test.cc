/**
 * vrdlint v2 self-tests: the symbol-aware rule families (rng-flow,
 * float-determinism, lock-discipline, scope-aware kernel-allocation)
 * pinned against fixtures, plus the SARIF writer's schema shape and
 * its line-content fingerprints.
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

/// "file:line: rule" — the tree-scan shape (several files at once).
std::vector<std::string> FileLocations(
    const std::vector<Diagnostic>& found) {
  std::vector<std::string> out;
  out.reserve(found.size());
  for (const Diagnostic& d : found) {
    out.push_back(d.file + ":" + std::to_string(d.line) + ": " + d.rule);
  }
  return out;
}

std::vector<Diagnostic> LintFixture(const std::string& name,
                                    const Config& config = Config()) {
  return vrdlint::LintSource(name, ReadFixture(name), config);
}

TEST(VrdlintRngFlow, FlagsCaptureBoundaryAndReseedAcrossFiles) {
  // The boundary-call case needs the tree scan: the callee signature
  // lives in the paired header, resolved via the symbol index.
  Config config;
  config.scan_dirs = {"rng_flow"};
  config.scan_dirs_overridden = true;
  const std::vector<Diagnostic> found =
      vrdlint::LintTree(FixtureDir().string(), config);
  EXPECT_EQ(FileLocations(found),
            (std::vector<std::string>{
                "rng_flow/rng_flow.cc:16: rng-flow",        // [&rng] capture
                "rng_flow/rng_flow.cc:17: rng-discipline",  // v1 co-fires
                "rng_flow/rng_flow.cc:27: rng-discipline",  // v1 co-fires
                "rng_flow/rng_flow.cc:27: rng-flow",        // FillShard(out, rng)
                "rng_flow/rng_flow.cc:33: rng-flow",        // Reseed(i * 1337)
            }));
  // The boundary diagnostic names the cross-file declaration site.
  bool saw_boundary = false;
  for (const Diagnostic& d : found) {
    if (d.line == 27 && d.rule == "rng-flow") {
      saw_boundary = true;
      EXPECT_NE(d.message.find("rng_flow/shard_math.h:16"),
                std::string::npos)
          << d.message;
    }
  }
  EXPECT_TRUE(saw_boundary);
}

TEST(VrdlintFloatDeterminism, FlagsContractableShapesAndSharedAccum) {
  Config config;
  config.float_paths = {"float_determinism.cc"};
  const std::vector<Diagnostic> found =
      LintFixture("float_determinism.cc", config);
  // Line 11: a*b + c. Line 15: acc += w*x. Line 35: shared `total`
  // accumulated across ParallelFor tasks. The split/paren-depth/
  // integer/local/allowed variants stay clean.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{
                "11: float-determinism",
                "15: float-determinism",
                "35: float-determinism",
            }));
}

TEST(VrdlintFloatDeterminism, AccumulationHalfAppliesOutsideFloatPaths) {
  // No float-path configured: the FMA shapes are not checked, but the
  // cross-task accumulation still is.
  const std::vector<Diagnostic> found =
      LintFixture("float_determinism.cc");
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{"35: float-determinism"}));
}

TEST(VrdlintLockDiscipline, ChecksGuardedByCoverageAndOrdering) {
  const std::vector<Diagnostic> found =
      LintFixture("lock_discipline.cc");
  // Line 15: unlocked touch. Line 32: the guard's block already
  // closed. Line 50: mu_a_/mu_b_ acquired in both orders. The locked,
  // requires_lock, and allow(lock-discipline) methods stay clean.
  EXPECT_EQ(Locations(found),
            (std::vector<std::string>{
                "15: lock-discipline",
                "32: lock-discipline",
                "50: lock-discipline",
            }));
  EXPECT_NE(found[2].message.find("inconsistent order"),
            std::string::npos);
  EXPECT_NE(found[0].message.find("guarded_by(mu_)"), std::string::npos);
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
  diags.push_back(Diagnostic{"src/a.cc", 7, "rng-flow",
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
  EXPECT_NE(sarif.find("{\"id\": \"rng-flow\"}"), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"rng-flow\""), std::string::npos);
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
