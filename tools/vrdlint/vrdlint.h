/**
 * @file
 * vrdlint — the vrddram determinism-contract linter.
 *
 * A standalone token/line-level scanner (no libclang) that enforces
 * the DESIGN.md §6 determinism rules as machine-checked invariants
 * over src/, tests/, bench/, and examples/:
 *
 *  - banned-api            nondeterministic sources (std::random_device,
 *                          rand/srand, time(), std::chrono::*_clock::now)
 *                          outside annotated telemetry
 *  - unordered-iteration   range-for over std::unordered_{map,set}
 *                          unless laundered through SortedByKey()
 *                          or annotated
 *  - rng-discipline        Rng must be constructed (and rng-named
 *                          members initialized) from a seed expression
 *  - catch-all-swallow     `catch (...)` / `catch (std::exception&)`
 *                          handlers must rethrow, capture the
 *                          exception (std::current_exception), or
 *                          convert it to a typed vrddram error
 *                          (TransientError/FatalError/PanicError) —
 *                          silently swallowing breaks the error.h
 *                          retry/quarantine contract
 *  - header-hygiene        include guards / #pragma once present and
 *                          no `using namespace` in headers
 *  - campaign-discipline   direct RunCampaign(...) calls in files under
 *                          bench/ — experiments must route execution
 *                          through the registry driver's cached path
 *                          (core::RunCampaignCached) so `vrdrepro run
 *                          --all` executes each unique campaign once
 *  - kernel-allocation     heap allocation in measurement-kernel files
 *                          (the `kernel-path` entries of the config):
 *                          `new` expressions, make_unique/make_shared,
 *                          and container growth (push_back /
 *                          emplace_back / resize) on an object with no
 *                          earlier `.reserve(...)` in the file — the
 *                          hot path must stay allocation-free
 *                          (DESIGN.md §9); construction-time growth
 *                          is excused by pairing it with a reserve or
 *                          by annotation
 *
 * v2 adds a symbol-aware layer: pass 1 tokenizes every scanned file
 * into scopes, class members and float-typed names, and folds the
 * members into a tree-wide index; pass 2 runs the rules with that
 * index in hand. The scopes make kernel-allocation's reserve matching
 * scope-aware, and the index lets float-determinism resolve field
 * types across files:
 *
 *  - float-determinism     FMA-contractable shapes (`a*b + c`,
 *                          `acc += a*b`) in bit-equality kernel files
 *                          (the `float-path` entries of the config):
 *                          -ffp-contract may fuse them into one
 *                          rounding, which breaks the §6 bit-identical
 *                          reports contract
 *
 * Whether workers share an Rng stream or a float accumulator is not a
 * lint question: it is checked dynamically, by the parallel==serial
 * golden tests, the tsan preset, and CI's 1-vs-8-thread report diff.
 *
 * Suppressions are written in the source, next to the code they
 * excuse: `// vrdlint: allow(<rule-or-token>[, ...])` on the flagged
 * line or on a comment line immediately above it. The `wall-clock`
 * token allows the clock-read subset of banned-api without allowing
 * the rest of the rule; the `catch-all` token is shorthand for
 * catch-all-swallow.
 *
 * Diagnostics print as `file:line: rule: message`, and the scan exits
 * nonzero when anything fires — which is what lets ctest gate the
 * tree (see the `vrdlint_tree` test). The CLI can additionally emit
 * SARIF 2.1.0 (`--sarif`, see sarif.h).
 */
#ifndef VRDDRAM_TOOLS_VRDLINT_H
#define VRDDRAM_TOOLS_VRDLINT_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vrdlint {

/// One lint finding, addressed to a 1-based source line.
struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  /// FNV-1a 64 hash of the trimmed source line, the line-number-churn-
  /// resistant key used by the SARIF fingerprints.
  std::uint64_t content_hash = 0;

  /// "file:line: rule: message" — the stable output format.
  std::string ToString() const;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// FNV-1a 64-bit hash of the trimmed source line — the content key
/// that survives line-number churn.
std::uint64_t HashLineContent(std::string_view line);

/**
 * Linter configuration, read from a plain-text file of
 * `key = value` lines with `[rule]` sections and `#` comments:
 *
 *   scan = src
 *   exclude = tests/vrdlint/fixtures
 *   [banned-api]
 *   allow-path = bench/legacy_timer
 *   [rng-discipline]
 *   seed-call = MixSeed
 *   [unordered-iteration]
 *   ordering-call = SortedByKey
 *
 * `exclude` and `allow-path` values match as substrings of the
 * repo-relative path; `seed-call`/`ordering-call` values extend the
 * built-in defaults rather than replacing them. A section must name a
 * rule family; any other section is a parse error.
 */
struct Config {
  /// Directories (relative to the lint root) walked by LintTree.
  std::vector<std::string> scan_dirs = {"src", "tests", "bench",
                                        "examples"};
  /// Path substrings excluded from the walk (e.g. lint fixtures).
  std::vector<std::string> exclude_paths;
  /// Functions whose call makes an Rng constructor argument a valid
  /// seed expression.
  std::vector<std::string> seed_calls = {"MixSeed", "HashLabel",
                                         "SplitMix64"};
  /// Functions that turn an unordered container into a deterministic
  /// sequence, making range-for over the call result legal.
  std::vector<std::string> ordering_calls = {"SortedByKey"};
  /// Path substrings naming measurement-kernel files: only these are
  /// subject to the kernel-allocation rule. Empty by default (the rule
  /// is opt-in per file).
  std::vector<std::string> kernel_paths;
  /// Path substrings naming bit-equality kernel files: only these are
  /// subject to float-determinism. Empty by default.
  std::vector<std::string> float_paths;
  /// rule name -> path substrings where the rule is suppressed.
  std::map<std::string, std::vector<std::string>> allow_paths;
  /// Internal: set once the first `scan =` line replaces the default
  /// scan_dirs (subsequent lines append).
  bool scan_dirs_overridden = false;
};

/// Parse config text into *config (on top of the defaults already in
/// it). Returns false and sets *error on malformed input.
bool ParseConfigText(std::string_view text, Config* config,
                     std::string* error);

/// LoadConfigFile = read file + ParseConfigText.
bool LoadConfigFile(const std::string& path, Config* config,
                    std::string* error);

/// Lint one translation unit's text. `path` is the name used in
/// diagnostics and for allow-path matching.
std::vector<Diagnostic> LintSource(const std::string& path,
                                   std::string_view text,
                                   const Config& config);

/// Enumerate the files LintTree would scan: every *.h/.hh/.hpp/.cc/
/// .cpp/.cxx under config.scan_dirs, minus excludes, as sorted
/// root-relative paths.
std::vector<std::string> CollectFiles(const std::string& root,
                                      const Config& config);

/// Lint the tree rooted at `root`; diagnostics are sorted by
/// (file, line, rule).
std::vector<Diagnostic> LintTree(const std::string& root,
                                 const Config& config);

}  // namespace vrdlint

#endif  // VRDDRAM_TOOLS_VRDLINT_H
