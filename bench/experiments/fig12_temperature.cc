/**
 * @file
 * Figure 12 / Finding 16: the expected normalized value of the minimum
 * RDT with one RDT measurement at 50, 65, and 80 degC for six example
 * chips (two per manufacturer), using the Rowstripe1 data pattern and
 * tAggOn = minimum tRAS. The temperature sweep runs through the
 * simulated heater-pad + PID rig.
 */
#include <algorithm>
#include <iostream>
#include <map>

#include "common/experiment.h"

namespace vrddram::bench {
namespace {

core::CampaignConfig BuildFig12Campaign(const Flags& flags) {
  core::CampaignConfig config = CampaignConfigFromFlags(flags);
  config.patterns = {dram::DataPattern::kRowstripe1};
  config.t_ons = {core::TOnChoice::kMinTras};
  config.temperatures = {50.0, 65.0, 80.0};
  config.use_thermal_rig = flags.GetBool("rig");
  return config;
}

void AnalyzeFig12(const core::CampaignResult& result, Report* report) {
  std::ostream& out = report->out;
  core::MinRdtSettings settings;
  settings.sample_sizes = {1};

  PrintBanner(out,
              "Figure 12: expected normalized min RDT (N = 1) vs. "
              "temperature, Rowstripe1, tAggOn = min tRAS");

  PrintShardSummary(out, result);

  const auto groups =
      GroupNormMins(result, settings, [](const core::SeriesRecord& r) {
        return std::pair{r.device, static_cast<int>(r.temperature)};
      });

  TextTable table({"device", "temperature", "min", "Q1", "median",
                   "Q3", "max", "mean"});
  // device -> the median of each of its temperatures.
  std::map<std::string, std::vector<double>> medians;
  for (const auto& [key, per_n] : groups) {
    const auto& [device, temp] = key;
    const stats::BoxStats box = Box(per_n[0]);
    AddBoxRow(table, {device, Cell(temp) + " degC"}, box, 4);
    medians[device].push_back(box.median);
  }
  std::size_t devices_with_change = 0;
  for (const auto& [device, values] : medians) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    if (*hi > *lo) {
      ++devices_with_change;
    }
  }
  table.Print(out);

  PrintBanner(out, "Finding 16 check");
  PrintCheck(out,
             "fig12.devices_whose_profile_changes_with_temperature",
             "all",
             Cell(static_cast<std::uint64_t>(devices_with_change)) +
                 " of " +
                 Cell(static_cast<std::uint64_t>(medians.size())));
}

ExperimentSpec Fig12Spec() {
  ExperimentSpec spec;
  spec.name = "fig12_temperature";
  spec.description =
      "Figure 12: expected normalized min RDT vs. temperature";
  spec.flags = CampaignFlagSpecs(
      "M0,M1,S0,S2,H1,H3", "6",
      {{"rig", "true", "run the simulated heater-pad + PID thermal rig"}});
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--measurements=120"};
  spec.build_campaign = BuildFig12Campaign;
  spec.analyze = AnalyzeFig12;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig12Spec);

}  // namespace
}  // namespace vrddram::bench
