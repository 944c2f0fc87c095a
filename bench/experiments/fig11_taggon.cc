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
#include "core/min_rdt.h"

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

  std::map<std::string,
           std::map<core::TOnChoice, std::vector<std::vector<double>>>>
      groups;
  for (const core::SeriesRecord& record : result.records) {
    const core::RowMinRdtResult mc =
        core::AnalyzeRowSeries(record.flips, settings);
    auto& per_ton = groups[ManufacturerGroupName(record)][record.t_on];
    if (per_ton.empty()) {
      per_ton.resize(settings.sample_sizes.size());
    }
    for (std::size_t i = 0; i < mc.per_n.size(); ++i) {
      per_ton[i].push_back(mc.per_n[i].expected_norm_min);
    }
  }

  TextTable table({"group", "tAggOn", "N", "median", "max", "mean"});
  std::map<std::string, std::map<core::TOnChoice, double>> median_n1;
  for (const auto& [group, per_ton_map] : groups) {
    for (const auto& [ton, per_n] : per_ton_map) {
      for (std::size_t i = 0; i < settings.sample_sizes.size(); ++i) {
        if (per_n[i].empty()) {
          continue;
        }
        const stats::BoxStats box = Box(per_n[i]);
        table.AddRow(
            {group, ToString(ton),
             Cell(static_cast<std::uint64_t>(settings.sample_sizes[i])),
             Cell(box.median, 4), Cell(box.max, 4), Cell(box.mean, 4)});
        if (settings.sample_sizes[i] == 1) {
          median_n1[group][ton] = box.median;
        }
      }
    }
  }
  table.Print(out);

  PrintBanner(out, "Findings 14-15 checks");
  for (const auto& [group, per_ton] : median_n1) {
    if (per_ton.size() < 2) {
      continue;
    }
    double mn = 2.0;
    double mx = 0.0;
    for (const auto& [ton, median] : per_ton) {
      mn = std::min(mn, median);
      mx = std::max(mx, median);
    }
    PrintCheck(out, "fig11.profile_changes_with_taggon." + group,
               "medians differ across tAggOn",
               Cell(mn, 4) + " .. " + Cell(mx, 4));
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
