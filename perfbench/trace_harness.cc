/**
 * @file
 * `perfbench_trace` — the traced twin of `vrdrepro run`, used by
 * perfbench/run.py for the per-layer breakdown.
 *
 *   perfbench_trace run <vrdrepro run arguments> --trace_out=FILE
 *   perfbench_trace probe --seed=S [--smoke] --trace_out=FILE
 *
 * `run` repeats the loop of bench/common/driver.cc over the public
 * experiment registry: the same selection, flag forwarding, cache
 * policy and report files, so its reports must be byte-identical to the
 * ones `vrdrepro` writes for the same arguments. Around every call into
 * a layer it records a span (name, experiment, parent, start, end):
 * flag parsing, cache lookup and store, campaign execution, analysis
 * and the report write. Each campaign's progress stream is kept for the
 * shard counters. With a cache directory, one extra warm lookup pass
 * over the populated directory times the cache's read path. Spans stay
 * in memory and are written as JSON to FILE when the run ends.
 *
 * `probe` times a few stable public functions in isolation.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/experiment.h"
#include "core/campaign_cache.h"
#include "ecc/chipkill.h"
#include "ecc/hamming.h"
#include "memsim/system.h"
#include "memsim/workload.h"
#include "vrd/chip_catalog.h"

namespace {

using Clock = std::chrono::steady_clock;
using vrddram::FatalError;
using vrddram::bench::ExperimentRegistry;
using vrddram::bench::ExperimentSpec;
using vrddram::bench::FlagSpec;
using vrddram::bench::Flags;
using vrddram::bench::Report;
namespace core = vrddram::core;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

double Since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span {
  std::string name;
  std::string experiment;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  int Begin(const std::string& name, const std::string& experiment,
            int parent) {
    spans_.push_back({name, experiment, parent, Since(origin_), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end = Since(origin_); }

  void Write(std::ostream& out) const {
    out << "\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"name\": "
          << JsonString(span.name)
          << ", \"experiment\": " << JsonString(span.experiment)
          << ", \"parent\": " << span.parent << ", \"start\": " << span.start
          << ", \"end\": " << span.end << "}";
    }
    out << "\n]";
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// The progress stream of one executed (not cache-served) campaign.
struct CampaignTrace {
  std::string experiment;
  std::string progress;
};

struct RunOptions {
  bool all = false;
  bool smoke = false;
  bool no_cache = false;
  std::string cache_dir;
  std::string out_dir;
  std::string trace_out;
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
    } else if (arg.rfind("--trace_out=", 0) == 0) {
      options.trace_out = arg.substr(12);
    } else if (arg.rfind("--", 0) == 0) {
      options.forwarded.push_back(arg);
    } else {
      options.names.push_back(arg);
    }
  }
  VRD_FATAL_IF(options.all == !options.names.empty(),
               "run: give experiment names or --all");
  VRD_FATAL_IF(options.trace_out.empty(), "run: --trace_out=FILE is required");
  return options;
}

std::string FlagKey(const std::string& token) {
  const std::size_t eq = token.find('=');
  return eq == std::string::npos ? token.substr(2)
                                 : token.substr(2, eq - 2);
}

bool DeclaresFlag(const ExperimentSpec& spec, const std::string& key) {
  for (const FlagSpec& flag : spec.flags) {
    if (flag.name == key) {
      return true;
    }
  }
  return false;
}

std::vector<const ExperimentSpec*> Select(const RunOptions& options) {
  if (options.all) {
    return ExperimentRegistry::Instance().All();
  }
  std::vector<const ExperimentSpec*> selected;
  for (const std::string& name : options.names) {
    const ExperimentSpec* spec = ExperimentRegistry::Instance().Find(name);
    VRD_FATAL_IF(spec == nullptr, "unknown experiment '" + name + "'");
    selected.push_back(spec);
  }
  return selected;
}

int RunCommand(const std::vector<std::string>& args) {
  const RunOptions options = ParseRunArgs(args);
  const std::vector<const ExperimentSpec*> selected = Select(options);
  for (const std::string& token : options.forwarded) {
    bool known = false;
    for (const ExperimentSpec* spec : selected) {
      known = known || DeclaresFlag(*spec, FlagKey(token));
    }
    VRD_FATAL_IF(!known, "unknown flag --" + FlagKey(token) +
                             ": no selected experiment declares it");
  }

  Tracer tracer;
  std::vector<CampaignTrace> campaigns;
  std::vector<core::CampaignConfig> cached_configs;
  const int run = tracer.Begin("run", "", -1);
  core::CampaignCache cache(options.cache_dir);
  core::CampaignCache* cache_ptr = options.no_cache ? nullptr : &cache;
  if (!options.out_dir.empty()) {
    std::filesystem::create_directories(options.out_dir);
  }

  for (const ExperimentSpec* spec : selected) {
    const std::string& name = spec->name;
    const int experiment = tracer.Begin("experiment", name, run);

    int span = tracer.Begin("driver.parse", name, experiment);
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
    std::optional<core::CampaignConfig> config;
    if (spec->build_campaign) {
      config = spec->build_campaign(flags);
    }
    tracer.End(span);

    // RunCampaignCached, split so lookup, execution and store are
    // timed apart.
    core::CampaignResult result;
    if (config) {
      std::optional<core::CampaignResult> hit;
      if (cache_ptr != nullptr) {
        span = tracer.Begin("cache.lookup", name, experiment);
        hit = cache_ptr->Lookup(*config);
        tracer.End(span);
        cached_configs.push_back(*config);
      }
      if (hit) {
        result = *std::move(hit);
      } else {
        std::ostringstream progress;
        span = tracer.Begin("campaign", name, experiment);
        result = core::RunCampaign(*config, &progress);
        tracer.End(span);
        if (cache_ptr != nullptr) {
          span = tracer.Begin("cache.store", name, experiment);
          cache_ptr->Store(*config, result);
          tracer.End(span);
        }
        campaigns.push_back({name, progress.str()});
      }
    }

    std::ostringstream text;
    span = tracer.Begin("analyze", name, experiment);
    Report report{text, flags};
    spec->analyze(result, &report);
    tracer.End(span);

    span = tracer.Begin("driver.write", name, experiment);
    if (options.out_dir.empty()) {
      std::cout << text.str() << std::flush;
    } else {
      const std::string path =
          (std::filesystem::path(options.out_dir) / (name + ".txt")).string();
      std::ofstream file(path, std::ios::trunc);
      VRD_FATAL_IF(!file, "cannot open '" + path + "' for writing");
      file << text.str();
      file.close();
      VRD_FATAL_IF(!file, "failed to finish writing '" + path + "'");
    }
    tracer.End(span);
    tracer.End(experiment);
  }
  tracer.End(run);

  if (!options.cache_dir.empty() && cache_ptr != nullptr) {
    const int load = tracer.Begin("cache.load", "", -1);
    core::CampaignCache warm(options.cache_dir);
    for (const core::CampaignConfig& config : cached_configs) {
      warm.Lookup(config);
    }
    tracer.End(load);
  }

  std::ofstream out(options.trace_out, std::ios::trunc);
  VRD_FATAL_IF(!out, "cannot open '" + options.trace_out + "'");
  out.precision(9);
  out << "{\n";
  tracer.Write(out);
  out << ",\n\"campaigns\": [";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "  {\"experiment\": "
        << JsonString(campaigns[i].experiment) << ", \"progress\": " << JsonString(campaigns[i].progress) << "}";
  }
  const core::CampaignCacheStats& stats = cache.stats();
  out << "\n],\n\"cache\": {\"hits\": " << stats.hits
      << ", \"misses\": " << stats.misses << ", \"stores\": " << stats.stores
      << "}\n}\n";
  out.close();
  VRD_FATAL_IF(!out, "failed to finish writing '" + options.trace_out + "'");
  return 0;
}

/// Median seconds of `reps` timed calls of `body`.
template <typename Body>
double MedianSeconds(std::size_t reps, Body&& body) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    body();
    seconds.push_back(Since(start));
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[reps / 2];
}

int ProbeCommand(const std::vector<std::string>& args) {
  std::uint64_t seed = 2025;
  bool smoke = false;
  std::string trace_out;
  for (const std::string& arg : args) {
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--trace_out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else {
      VRD_FATAL_IF(true, "probe: unknown argument '" + arg + "'");
    }
  }
  VRD_FATAL_IF(trace_out.empty(), "probe: --trace_out=FILE is required");

  const std::size_t reps = smoke ? 1 : 7;
  const std::size_t measurements = smoke ? 2000 : 100000;
  vrddram::bench::SingleRowSeries series;
  bool found = false;
  const double series_s = MedianSeconds(reps, [&] {
    found = vrddram::bench::CollectSingleRowSeries("H1", measurements, seed,
                                                   &series);
  });
  VRD_FATAL_IF(!found || series.series.empty(),
               "probe: no victim row found on H1");

  const std::vector<std::string>& devices = vrddram::vrd::AllDeviceNames();
  std::size_t built = 0;
  const double build_s = MedianSeconds(smoke ? 1 : 41, [&] {
    for (const std::string& name : devices) {
      built += vrddram::vrd::BuildDevice(name, seed) != nullptr ? 1 : 0;
    }
  });
  VRD_FATAL_IF(built == 0, "probe: the device catalog is empty");

  const std::vector<vrddram::memsim::WorkloadMix> mixes =
      vrddram::memsim::MakeHighMemoryIntensityMixes(seed);
  vrddram::memsim::SystemConfig memsim_config;
  memsim_config.seed = seed;
  if (smoke) {
    memsim_config.requests_per_core = 500;
  }
  vrddram::memsim::SystemResult memsim;
  const double memsim_s = MedianSeconds(reps, [&] {
    memsim = vrddram::memsim::SimulateMix(mixes[0], memsim_config);
  });
  VRD_FATAL_IF(memsim.total_requests == 0, "probe: memsim served nothing");

  // One or two injected errors per codeword, drawn before timing.
  const std::size_t words = smoke ? 2000 : 200000;
  std::mt19937_64 rng(seed);
  const vrddram::ecc::Hamming72 hamming;
  const vrddram::ecc::ChipkillSsc chipkill;
  std::vector<vrddram::ecc::Codeword72> words72;
  std::vector<vrddram::ecc::CodewordSsc> words144;
  words72.reserve(words);
  words144.reserve(words);
  for (std::size_t i = 0; i < words; ++i) {
    vrddram::ecc::Codeword72 w72 = hamming.Encode(rng());
    std::array<std::uint8_t, 16> data{};
    for (std::uint8_t& byte : data) {
      byte = static_cast<std::uint8_t>(rng());
    }
    vrddram::ecc::CodewordSsc w144 = chipkill.Encode(data);
    const std::size_t errors = 1 + rng() % 2;
    for (std::size_t e = 0; e < errors; ++e) {
      w72.FlipBit(rng() % 72);
      w144.symbols[rng() % 18] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    }
    words72.push_back(w72);
    words144.push_back(w144);
  }
  std::size_t corrected = 0;
  const double ecc_s = MedianSeconds(reps, [&] {
    for (const vrddram::ecc::Codeword72& w : words72) {
      corrected += hamming.Decode(w).status ==
                   vrddram::ecc::DecodeStatus::kCorrected;
    }
    for (const vrddram::ecc::CodewordSsc& w : words144) {
      corrected += chipkill.Decode(w).status ==
                   vrddram::ecc::DecodeStatus::kCorrected;
    }
  });

  std::ofstream out(trace_out, std::ios::trunc);
  VRD_FATAL_IF(!out, "cannot open '" + trace_out + "'");
  out.precision(9);
  out << "{\"series_ns_per_meas\": "
      << series_s * 1e9 / static_cast<double>(series.series.size())
      << ", \"device_build_ms\": "
      << build_s * 1e3 / static_cast<double>(devices.size())
      << ", \"memsim_ns_per_req\": "
      << memsim_s * 1e9 / static_cast<double>(memsim.total_requests)
      << ", \"ecc_decode_ns\": "
      << ecc_s * 1e9 / static_cast<double>(2 * words)
      << ", \"ecc_corrected\": " << corrected << "}\n";
  out.close();
  VRD_FATAL_IF(!out, "failed to finish writing '" + trace_out + "'");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + (argc > 1 ? 2 : argc),
                                      argv + argc);
  const std::string command = argc > 1 ? argv[1] : "";
  try {
    if (command == "run") {
      return RunCommand(args);
    }
    if (command == "probe") {
      return ProbeCommand(args);
    }
    std::cerr << "usage: perfbench_trace run <vrdrepro run arguments> "
                 "--trace_out=FILE\n"
                 "       perfbench_trace probe --seed=S [--smoke] "
                 "--trace_out=FILE\n";
    return 2;
  } catch (const FatalError& e) {
    std::cerr << "perfbench_trace: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << '\n';
    return 2;
  }
}
