/**
 * @file
 * Figure 12 / Finding 16: the expected normalized value of the minimum
 * RDT with one RDT measurement at 50, 65, and 80 degC for six example
 * chips (two per manufacturer), using the Rowstripe1 data pattern and
 * tAggOn = minimum tRAS. The temperature sweep runs through the
 * simulated heater-pad + PID rig.
 */
#include <iostream>
#include <map>

#include "common/experiment.h"
#include "core/min_rdt.h"

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

  std::map<std::string, std::map<int, std::vector<double>>> groups;
  for (const core::SeriesRecord& record : result.records) {
    const core::RowMinRdtResult mc =
        core::AnalyzeRowSeries(record.flips, settings);
    groups[record.device][static_cast<int>(record.temperature)]
        .push_back(mc.per_n[0].expected_norm_min);
  }

  TextTable table({"device", "temperature", "min", "Q1", "median",
                   "Q3", "max", "mean"});
  std::size_t devices_with_change = 0;
  for (const auto& [device, per_temp] : groups) {
    double lo_median = 10.0;
    double hi_median = 0.0;
    for (const auto& [temp, values] : per_temp) {
      const stats::BoxStats box = Box(values);
      table.AddRow({device, Cell(temp) + " degC", Cell(box.min, 4),
                    Cell(box.q1, 4), Cell(box.median, 4),
                    Cell(box.q3, 4), Cell(box.max, 4),
                    Cell(box.mean, 4)});
      lo_median = std::min(lo_median, box.median);
      hi_median = std::max(hi_median, box.median);
    }
    if (hi_median > lo_median) {
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
                 Cell(static_cast<std::uint64_t>(groups.size())));
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
