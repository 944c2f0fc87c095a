/**
 * @file
 * Internal interface between the vrdlint driver (vrdlint.cc) and the
 * rule families (rules_core.cc, rules_float.cc). Not part of the
 * public vrdlint.h API.
 */
#ifndef VRDDRAM_TOOLS_VRDLINT_RULES_H
#define VRDDRAM_TOOLS_VRDLINT_RULES_H

#include <string>
#include <string_view>
#include <vector>

#include "symbol_index.h"
#include "tokenizer.h"
#include "vrdlint.h"

namespace vrdlint {

/// Everything a rule needs to scan one file in pass 2.
struct RuleContext {
  const std::string& path;
  const FileView& view;
  const FileSymbols& symbols;
  const SymbolIndex& index;
  const Config& config;
  /// Extra unordered-container names from the paired header, or null.
  const std::vector<std::string>* extra_unordered = nullptr;
};

bool IsHeaderPath(std::string_view path);
bool RuleSuppressedForPath(const Config& config, std::string_view rule,
                           std::string_view path);

/// Names declared with an unordered container type in the file.
std::vector<std::string> CollectUnorderedNames(const FileView& view);

/// Run the v1 rule families: banned-api, unordered-iteration,
/// rng-discipline, catch-all-swallow, campaign-discipline,
/// kernel-allocation, header-hygiene.
void RunCoreRules(const RuleContext& ctx,
                  std::vector<Diagnostic>* diagnostics);

/// float-determinism: FMA-contractable shapes in bit-equality kernel
/// files.
void CheckFloatDeterminism(const RuleContext& ctx,
                           std::vector<Diagnostic>* diagnostics);

}  // namespace vrdlint

#endif  // VRDDRAM_TOOLS_VRDLINT_RULES_H
