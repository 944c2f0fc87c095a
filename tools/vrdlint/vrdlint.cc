/**
 * @file
 * vrdlint driver: config parsing, file collection, and the two-pass
 * lint pipeline. Pass 1 builds a FileView + FileSymbols for every
 * scanned file and folds their class members into a tree-wide
 * SymbolIndex; pass 2 runs the rule families (rules_core.cc,
 * rules_float.cc) per file with the index in hand.
 */
#include "vrdlint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "rules.h"
#include "symbol_index.h"
#include "tokenizer.h"

namespace vrdlint {
namespace {

/// The rule families a config `[section]` may name.
constexpr std::string_view kRuleFamilies[] = {
    "banned-api",          "unordered-iteration", "rng-discipline",
    "catch-all-swallow",   "campaign-discipline", "kernel-allocation",
    "header-hygiene",      "float-determinism",
};

void SortDiagnostics(std::vector<Diagnostic>* diagnostics) {
  std::sort(diagnostics->begin(), diagnostics->end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

/// Key diagnostics to their source line's content (SARIF fingerprints
/// survive pure line-number churn this way).
void StampContentHashes(const FileView& view,
                        std::vector<Diagnostic>* diagnostics,
                        std::size_t from) {
  for (std::size_t i = from; i < diagnostics->size(); ++i) {
    Diagnostic& diag = (*diagnostics)[i];
    if (diag.line >= 1 && diag.line <= view.raw.size()) {
      diag.content_hash = HashLineContent(view.raw[diag.line - 1]);
    }
  }
}

/// Pass-2 body for one file: every rule family.
void RunFileRules(const RuleContext& ctx,
                  std::vector<Diagnostic>* diagnostics) {
  const std::size_t before = diagnostics->size();
  RunCoreRules(ctx, diagnostics);
  CheckFloatDeterminism(ctx, diagnostics);
  StampContentHashes(ctx.view, diagnostics, before);
}

}  // namespace

std::uint64_t HashLineContent(std::string_view line) {
  const std::string trimmed = Trim(line);
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (const char c : trimmed) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;  // FNV-1a 64 prime
  }
  return hash;
}

std::string Diagnostic::ToString() const {
  std::ostringstream out;
  out << file << ':' << line << ": " << rule << ": " << message;
  return out.str();
}

bool ParseConfigText(std::string_view text, Config* config,
                     std::string* error) {
  std::string section;
  std::size_t lineno = 0;
  for (const std::string& raw : SplitLines(text)) {
    ++lineno;
    std::string line = Trim(raw);
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = Trim(line.substr(0, hash));
    }
    if (line.empty()) {
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') {
        *error = "config line " + std::to_string(lineno) +
                 ": unterminated section header";
        return false;
      }
      section = Trim(line.substr(1, line.size() - 2));
      if (std::find(std::begin(kRuleFamilies), std::end(kRuleFamilies),
                    section) == std::end(kRuleFamilies)) {
        *error = "config line " + std::to_string(lineno) +
                 ": unknown section [" + section + "]";
        return false;
      }
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      *error = "config line " + std::to_string(lineno) +
               ": expected key = value";
      return false;
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (value.empty()) {
      *error = "config line " + std::to_string(lineno) + ": empty value";
      return false;
    }
    if (section.empty()) {
      if (key == "scan") {
        if (!config->scan_dirs_overridden) {
          config->scan_dirs.clear();
          config->scan_dirs_overridden = true;
        }
        config->scan_dirs.push_back(value);
      } else if (key == "exclude") {
        config->exclude_paths.push_back(value);
      } else {
        *error = "config line " + std::to_string(lineno) +
                 ": unknown key '" + key + "'";
        return false;
      }
      continue;
    }
    if (key == "allow-path") {
      config->allow_paths[section].push_back(value);
    } else if (section == "rng-discipline" && key == "seed-call") {
      config->seed_calls.push_back(value);
    } else if (section == "unordered-iteration" &&
               key == "ordering-call") {
      config->ordering_calls.push_back(value);
    } else if (section == "kernel-allocation" && key == "kernel-path") {
      config->kernel_paths.push_back(value);
    } else if (section == "float-determinism" && key == "float-path") {
      config->float_paths.push_back(value);
    } else {
      *error = "config line " + std::to_string(lineno) +
               ": unknown key '" + key + "' in section [" + section + "]";
      return false;
    }
  }
  return true;
}

bool LoadConfigFile(const std::string& path, Config* config,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read config file: " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseConfigText(buffer.str(), config, error);
}

std::vector<Diagnostic> LintSource(const std::string& path,
                                   std::string_view text,
                                   const Config& config) {
  const FileView view = BuildView(text);
  const FileSymbols symbols = AnalyzeFile(view);
  SymbolIndex index;
  index.AddFile(symbols);
  const RuleContext ctx{path, view, symbols, index, config, nullptr};
  std::vector<Diagnostic> diagnostics;
  RunFileRules(ctx, &diagnostics);
  SortDiagnostics(&diagnostics);
  return diagnostics;
}

std::vector<std::string> CollectFiles(const std::string& root,
                                      const Config& config) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& dir : config.scan_dirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::is_directory(base)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hh" && ext != ".hpp" && ext != ".cc" &&
          ext != ".cpp" && ext != ".cxx") {
        continue;
      }
      const std::string relative =
          fs::relative(entry.path(), root).generic_string();
      bool excluded = false;
      for (const std::string& fragment : config.exclude_paths) {
        if (relative.find(fragment) != std::string::npos) {
          excluded = true;
          break;
        }
      }
      if (!excluded) {
        files.push_back(relative);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<Diagnostic> LintTree(const std::string& root,
                                 const Config& config) {
  namespace fs = std::filesystem;
  const std::vector<std::string> files = CollectFiles(root, config);

  // Pass 1: read every file once, build its view and symbols, fold
  // its members into the tree-wide index. Pass 2 needs every view and
  // the complete index, so everything is kept in file order.
  struct ScannedFile {
    std::string path;
    std::string text;
    FileView view;
    FileSymbols symbols;
  };
  std::vector<ScannedFile> scanned;
  scanned.reserve(files.size());
  SymbolIndex index;
  // Per-header unordered member names, so a .cc iterating a member
  // declared in its paired header (device.cc over a map from
  // device.h) is still caught. The pairing is by path stem, not a
  // global name pool — `rows_` being unordered in device.h must not
  // taint an unrelated vector member of the same name elsewhere.
  std::map<std::string, std::vector<std::string>> header_names;
  for (const std::string& relative : files) {
    std::ifstream in(fs::path(root) / relative);
    if (!in) {
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    scanned.push_back(ScannedFile{relative, buffer.str(), {}, {}});
    ScannedFile& file = scanned.back();
    file.view = BuildView(file.text);
    file.symbols = AnalyzeFile(file.view);
    index.AddFile(file.symbols);
    if (IsHeaderPath(relative)) {
      std::vector<std::string> names = CollectUnorderedNames(file.view);
      if (!names.empty()) {
        const std::string stem = relative.substr(0, relative.rfind('.'));
        header_names[stem] = std::move(names);
      }
    }
  }

  // Pass 2: rules, with cross-file symbol resolution available.
  std::vector<Diagnostic> diagnostics;
  for (const ScannedFile& file : scanned) {
    const std::vector<std::string>* extra = nullptr;
    if (!IsHeaderPath(file.path)) {
      const std::string stem =
          file.path.substr(0, file.path.rfind('.'));
      const auto it = header_names.find(stem);
      if (it != header_names.end()) {
        extra = &it->second;
      }
    }
    const RuleContext ctx{file.path, file.view, file.symbols,
                          index,     config,    extra};
    RunFileRules(ctx, &diagnostics);
  }

  SortDiagnostics(&diagnostics);
  return diagnostics;
}

}  // namespace vrdlint
