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

std::vector<FlagSpec> CampaignFlagSpecs() {
  return {
      ThreadsFlagSpec(),
      {"checkpoint", "", "persist completed shards to this file"},
      {"resume", "false", "restore completed shards from --checkpoint"},
      {"inject", "", "fault-injection plan (fi::FaultPlan grammar)"},
      {"max_attempts", "3", "attempts per shard before quarantine"},
  };
}

std::vector<FlagSpec> WithCampaignFlags(std::vector<FlagSpec> specs) {
  for (FlagSpec& spec : CampaignFlagSpecs()) {
    specs.push_back(std::move(spec));
  }
  return specs;
}

void ApplyCampaignExecutionFlags(const Flags& flags,
                                 core::CampaignConfig* config) {
  config->threads = static_cast<std::size_t>(flags.GetUint("threads"));
  config->checkpoint_path = flags.GetString("checkpoint");
  config->resume = flags.GetBool("resume");
  config->inject = flags.GetString("inject");
  config->max_attempts =
      static_cast<std::size_t>(flags.GetUint("max_attempts"));
}

}  // namespace vrddram::bench
