/**
 * @file
 * Figure 11 / Findings 14-15: the expected normalized value of the
 * minimum RDT after N measurements for the three aggressor-on-time
 * levels (minimum tRAS, tREFI, 9 x tREFI), per manufacturer. The VRD
 * profile can become better or worse as tAggOn increases.
 */
#include <algorithm>
#include <iostream>
#include <map>

#include "common/experiment.h"

namespace vrddram::bench {
namespace {

core::CampaignConfig BuildFig11Campaign(const Flags& flags) {
  core::CampaignConfig config = CampaignConfigFromFlags(flags);
  config.t_ons = {core::TOnChoice::kMinTras, core::TOnChoice::kTrefi,
                  core::TOnChoice::kNineTrefi};
  return config;
}

void AnalyzeFig11(const core::CampaignResult& result, Report* report) {
  std::ostream& out = report->out;
  const core::MinRdtSettings settings;

  PrintBanner(out,
              "Figure 11: expected normalized min RDT per tAggOn and "
              "manufacturer");

  PrintShardSummary(out, result);

  const auto groups =
      GroupNormMins(result, settings, [](const core::SeriesRecord& r) {
        return std::pair{ManufacturerGroupName(r), r.t_on};
      });

  TextTable table({"group", "tAggOn", "N", "median", "max", "mean"});
  // group -> the N = 1 median of each of its tAggOn levels.
  std::map<std::string, std::vector<double>> median_n1;
  for (const auto& [key, per_n] : groups) {
    const auto& [group, ton] = key;
    median_n1[group].push_back(
        AddNormMinRows(table, {group, ToString(ton)}, per_n, settings));
  }
  table.Print(out);

  PrintBanner(out, "Findings 14-15 checks");
  for (const auto& [group, medians] : median_n1) {
    if (medians.size() < 2) {
      continue;
    }
    const auto [mn, mx] = std::minmax_element(medians.begin(), medians.end());
    PrintCheck(out, "fig11.profile_changes_with_taggon." + group,
               "medians differ across tAggOn",
               Cell(*mn, 4) + " .. " + Cell(*mx, 4));
  }
}

ExperimentSpec Fig11Spec() {
  ExperimentSpec spec;
  spec.name = "fig11_taggon";
  spec.description =
      "Figure 11: expected normalized min RDT per tAggOn level";
  spec.flags = CampaignFlagSpecs("all", "6");
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--measurements=120"};
  spec.build_campaign = BuildFig11Campaign;
  spec.analyze = AnalyzeFig11;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig11Spec);

}  // namespace
}  // namespace vrddram::bench
