/**
 * vrdlint CLI.
 *
 *   vrdlint [--root DIR] [--config FILE] [--sarif FILE] [file...]
 *
 * With file arguments, lints exactly those files; otherwise walks the
 * configured scan directories under --root (default: the current
 * directory). The config defaults to <root>/tools/vrdlint/vrdlint.conf
 * when that file exists. --sarif writes the findings as SARIF 2.1.0
 * for GitHub code-scanning upload.
 *
 * Exit status: 0 clean, 1 diagnostics emitted, 2 usage/IO error.
 */
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sarif.h"
#include "vrdlint.h"

namespace {

int Usage(std::ostream& out) {
  out << "usage: vrdlint [--root DIR] [--config FILE] [--sarif FILE]"
         " [file...]\n";
  return 2;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string config_path;
  std::string sarif_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(std::cout);
      return 0;
    }
    if (arg == "--root") {
      if (++i >= argc) {
        return Usage(std::cerr);
      }
      root = argv[i];
    } else if (arg == "--config") {
      if (++i >= argc) {
        return Usage(std::cerr);
      }
      config_path = argv[i];
    } else if (arg == "--sarif") {
      if (++i >= argc) {
        return Usage(std::cerr);
      }
      sarif_path = argv[i];
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "vrdlint: unknown option: " << arg << '\n';
      return Usage(std::cerr);
    } else {
      files.push_back(arg);
    }
  }

  vrdlint::Config config;
  std::string error;
  if (config_path.empty()) {
    const std::filesystem::path fallback =
        std::filesystem::path(root) / "tools" / "vrdlint" / "vrdlint.conf";
    if (std::filesystem::exists(fallback)) {
      config_path = fallback.string();
    }
  }
  if (!config_path.empty() &&
      !vrdlint::LoadConfigFile(config_path, &config, &error)) {
    std::cerr << "vrdlint: " << error << '\n';
    return 2;
  }

  std::vector<vrdlint::Diagnostic> diagnostics;
  std::size_t scanned = 0;
  if (!files.empty()) {
    for (const std::string& file : files) {
      std::ifstream in(file);
      if (!in) {
        std::cerr << "vrdlint: cannot read " << file << '\n';
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      ++scanned;
      for (vrdlint::Diagnostic& d :
           vrdlint::LintSource(file, buffer.str(), config)) {
        diagnostics.push_back(std::move(d));
      }
    }
  } else {
    scanned = vrdlint::CollectFiles(root, config).size();
    diagnostics = vrdlint::LintTree(root, config);
  }

  if (!sarif_path.empty() &&
      !WriteFile(sarif_path, vrdlint::SarifReport(diagnostics))) {
    std::cerr << "vrdlint: cannot write SARIF: " << sarif_path << '\n';
    return 2;
  }

  for (const vrdlint::Diagnostic& d : diagnostics) {
    std::cout << d.ToString() << '\n';
  }
  std::cerr << "vrdlint: " << diagnostics.size() << " issue(s) in "
            << scanned << " file(s) scanned\n";
  return diagnostics.empty() ? 0 : 1;
}
