#include "common/experiment.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace vrddram::bench {

ExperimentRegistry& ExperimentRegistry::Instance() {
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::Register(ExperimentSpec spec) {
  VRD_FATAL_IF(spec.name.empty(), "experiment spec has no name");
  VRD_FATAL_IF(spec.analyze == nullptr,
               "experiment '" + spec.name + "' has no analyze function");
  VRD_FATAL_IF(Find(spec.name) != nullptr,
               "duplicate experiment name '" + spec.name + "'");
  specs_.push_back(std::move(spec));
}

const ExperimentSpec* ExperimentRegistry::Find(
    const std::string& name) const {
  for (const ExperimentSpec& spec : specs_) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<const ExperimentSpec*> ExperimentRegistry::All() const {
  std::vector<const ExperimentSpec*> all;
  all.reserve(specs_.size());
  for (const ExperimentSpec& spec : specs_) {
    all.push_back(&spec);
  }
  std::sort(all.begin(), all.end(),
            [](const ExperimentSpec* a, const ExperimentSpec* b) {
              return a->name < b->name;
            });
  return all;
}

ExperimentRegistrar::ExperimentRegistrar(ExperimentSpec (*factory)()) {
  ExperimentRegistry::Instance().Register(factory());
}

FlagSpec ThreadsFlagSpec() {
  return {"threads", "0", "worker threads (0 = hardware concurrency)"};
}

std::vector<FlagSpec> RowStudyFlagSpecs(const std::string& devices,
                                        const std::string& rows,
                                        FlagSpec count) {
  std::vector<FlagSpec> specs;
  if (!devices.empty()) {
    specs.push_back({"devices", devices,
                     "device set: all, ddr4, hbm2, or comma list"});
  }
  specs.push_back({"rows", rows, "victim rows per device, a multiple of 3"});
  specs.push_back(std::move(count));
  specs.push_back({"seed", "2025", "base RNG seed"});
  specs.push_back(
      {"scan", "96", "rows scanned per region when selecting victims"});
  return specs;
}

std::vector<FlagSpec> CampaignFlagSpecs(const std::string& devices,
                                        const std::string& rows,
                                        const std::vector<FlagSpec>& extra) {
  std::vector<FlagSpec> specs = RowStudyFlagSpecs(
      devices, rows, {"measurements", "1000", "measurements per series"});
  specs.insert(specs.end(), extra.begin(), extra.end());
  specs.insert(
      specs.end(),
      {ThreadsFlagSpec(),
       {"checkpoint", "", "persist completed shards to this file"},
       {"resume", "false", "restore completed shards from --checkpoint"},
       {"inject", "", "fault-injection plan (fi::FaultPlan grammar)"},
       {"max_attempts", "3", "attempts per shard before quarantine"}});
  return specs;
}

core::CampaignConfig CampaignConfigFromFlags(const Flags& flags) {
  core::CampaignConfig config;
  ApplyRowStudyFlags(flags, &config);
  config.measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  config.checkpoint_path = flags.GetString("checkpoint");
  config.resume = flags.GetBool("resume");
  config.inject = flags.GetString("inject");
  config.max_attempts =
      static_cast<std::size_t>(flags.GetUint("max_attempts"));
  return config;
}

}  // namespace vrddram::bench
