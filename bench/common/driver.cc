#include "common/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <system_error>
#include <vector>

#include "common/error.h"
#include "common/experiment.h"
#include "core/campaign_cache.h"

namespace vrddram::bench {

namespace {

constexpr char kUsage[] =
    "usage: vrdrepro <command> [options]\n"
    "\n"
    "commands:\n"
    "  list                 list registered experiments\n"
    "  describe <name>      show an experiment's flags and smoke "
    "parameters\n"
    "  run <name...>        run experiments by name\n"
    "  run --all            run every registered experiment\n"
    "\n"
    "run options (consumed by the driver):\n"
    "  --all                select every experiment\n"
    "  --smoke              prepend each experiment's tiny smoke "
    "parameters\n"
    "  --no-cache           bypass the campaign cache\n"
    "  --cache_dir=DIR      persist campaign cache entries under DIR\n"
    "  --out_dir=DIR        write each report to DIR/<name>.txt instead "
    "of stdout\n"
    "\n"
    "any other --key=value option is forwarded to the selected\n"
    "experiments; a flag no selected experiment declares aborts with\n"
    "the experiment's schema.\n";

std::string FlagKey(const std::string& token) {
  const std::size_t eq = token.find('=');
  return eq == std::string::npos ? token.substr(2)
                                 : token.substr(2, eq - 2);
}

bool DeclaresFlag(const ExperimentSpec& spec, const std::string& key) {
  return std::any_of(
      spec.flags.begin(), spec.flags.end(),
      [&](const FlagSpec& flag) { return flag.name == key; });
}

std::string KnownExperimentNames() {
  std::string names;
  for (const ExperimentSpec* spec : ExperimentRegistry::Instance().All()) {
    names += "  " + spec->name + "\n";
  }
  return names;
}

const ExperimentSpec& FindExperiment(const std::string& name) {
  const ExperimentSpec* spec = ExperimentRegistry::Instance().Find(name);
  VRD_FATAL_IF(spec == nullptr, "unknown experiment '" + name +
                                    "'; registered experiments:\n" +
                                    KnownExperimentNames());
  return *spec;
}

int ListCommand(std::ostream& out) {
  const std::vector<const ExperimentSpec*> all =
      ExperimentRegistry::Instance().All();
  std::size_t width = 0;
  for (const ExperimentSpec* spec : all) {
    width = std::max(width, spec->name.size());
  }
  for (const ExperimentSpec* spec : all) {
    out << spec->name << std::string(width + 2 - spec->name.size(), ' ')
        << spec->description << '\n';
  }
  return 0;
}

int DescribeCommand(const std::vector<std::string>& names,
                    std::ostream& out) {
  VRD_FATAL_IF(names.empty(), "describe: expected an experiment name");
  for (std::size_t i = 0; i < names.size(); ++i) {
    const ExperimentSpec& spec = FindExperiment(names[i]);
    if (i > 0) {
      out << '\n';
    }
    out << spec.name << ": " << spec.description << '\n';
    out << Flags::Describe(spec.flags);
    if (!spec.smoke_args.empty()) {
      out << "smoke:";
      for (const std::string& arg : spec.smoke_args) {
        out << ' ' << arg;
      }
      out << '\n';
    }
  }
  return 0;
}

struct RunOptions {
  bool all = false;
  bool smoke = false;
  bool no_cache = false;
  std::string cache_dir;
  std::string out_dir;
  std::vector<std::string> names;
  std::vector<std::string> forwarded;
};

RunOptions ParseRunArgs(const std::vector<std::string>& args) {
  RunOptions options;
  for (const std::string& arg : args) {
    if (arg == "--all") {
      options.all = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--no-cache") {
      options.no_cache = true;
    } else if (arg.rfind("--cache_dir=", 0) == 0) {
      options.cache_dir = arg.substr(12);
    } else if (arg.rfind("--out_dir=", 0) == 0) {
      options.out_dir = arg.substr(10);
    } else if (arg.rfind("--", 0) == 0) {
      options.forwarded.push_back(arg);
    } else {
      options.names.push_back(arg);
    }
  }
  VRD_FATAL_IF(options.all && !options.names.empty(),
               "run: give experiment names or --all, not both");
  VRD_FATAL_IF(!options.all && options.names.empty(),
               "run: expected experiment names or --all\n" +
                   std::string(kUsage));
  return options;
}

/// Creates the directory a `--<flag>=DIR` option names, and raises a
/// FatalError naming the flag and the path when it cannot.
void CreateFlagDirectory(const std::string& flag, const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  VRD_FATAL_IF(error, "--" + flag + "=" + dir +
                          ": cannot create directory: " + error.message());
}

int RunCommand(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  const RunOptions options = ParseRunArgs(args);
  // Each run measures cold: single-row analyses are shared only between
  // the experiments of this run.
  ClearSingleRowAnalyses();

  std::vector<const ExperimentSpec*> selected;
  if (options.all) {
    selected = ExperimentRegistry::Instance().All();
  } else {
    for (const std::string& name : options.names) {
      selected.push_back(&FindExperiment(name));
    }
  }

  // Every forwarded flag must be declared by at least one selected
  // experiment; each experiment then receives only the flags it
  // declares, so shared knobs (--threads, --seed) fan out while an
  // unknown flag still aborts with the real schema.
  for (const std::string& token : options.forwarded) {
    const std::string key = FlagKey(token);
    const bool known = std::any_of(
        selected.begin(), selected.end(),
        [&](const ExperimentSpec* spec) { return DeclaresFlag(*spec, key); });
    if (!known && selected.size() == 1) {
      VRD_FATAL_IF(true, "unknown flag --" + key + "\n" +
                             Flags::Describe(selected[0]->flags));
    }
    VRD_FATAL_IF(!known, "unknown flag --" + key +
                             ": no selected experiment declares it");
  }

  core::CampaignCache cache(options.cache_dir);
  core::CampaignCache* cache_ptr = options.no_cache ? nullptr : &cache;
  // Both directories are made before any experiment runs, so a bad
  // path fails fast instead of after a campaign has executed.
  if (cache_ptr != nullptr && !options.cache_dir.empty()) {
    CreateFlagDirectory("cache_dir", options.cache_dir);
  }
  if (!options.out_dir.empty()) {
    CreateFlagDirectory("out_dir", options.out_dir);
  }

  for (const ExperimentSpec* spec : selected) {
    std::vector<std::string> experiment_args;
    if (options.smoke) {
      experiment_args = spec->smoke_args;
    }
    for (const std::string& token : options.forwarded) {
      if (DeclaresFlag(*spec, FlagKey(token))) {
        experiment_args.push_back(token);
      }
    }
    const Flags flags(experiment_args, spec->flags);

    core::CampaignResult result;
    if (spec->build_campaign) {
      result = core::RunCampaignCached(spec->build_campaign(flags),
                                       cache_ptr, &err);
    }

    if (options.out_dir.empty()) {
      Report report{out, flags};
      spec->analyze(result, &report);
    } else {
      const std::string path = (std::filesystem::path(options.out_dir) /
                                (spec->name + ".txt"))
                                   .string();
      std::ofstream file(path, std::ios::trunc);
      VRD_FATAL_IF(!file,
                   "cannot open '" + path + "' for writing");
      Report report{file, flags};
      spec->analyze(result, &report);
      file.close();
      VRD_FATAL_IF(!file, "failed to finish writing '" + path + "'");
      err << "vrdrepro: " << spec->name << " -> " << path << '\n';
    }
  }

  if (cache_ptr != nullptr) {
    const core::CampaignCacheStats& stats = cache.stats();
    err << "vrdrepro: cache hits=" << stats.hits
        << " misses=" << stats.misses << " stores=" << stats.stores
        << '\n';
  }
  return 0;
}

}  // namespace

int RunDriver(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  try {
    if (argc < 2) {
      err << kUsage;
      return 2;
    }
    const std::string command = argv[1];
    std::vector<std::string> args;
    for (int i = 2; i < argc; ++i) {
      args.emplace_back(argv[i]);
    }
    if (command == "list") {
      return ListCommand(out);
    }
    if (command == "describe") {
      return DescribeCommand(args, out);
    }
    if (command == "run") {
      return RunCommand(args, out, err);
    }
    if (command == "--help" || command == "help") {
      out << kUsage;
      return 0;
    }
    err << "vrdrepro: unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const FatalError& e) {
    err << "vrdrepro: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace vrddram::bench
