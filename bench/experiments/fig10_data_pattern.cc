/**
 * @file
 * Figure 10 / Findings 12-13: the expected normalized value of the
 * minimum RDT after N measurements for the four Table 2 data patterns,
 * grouped per manufacturer (and the HBM2 chips). No single data
 * pattern causes the worst VRD profile across all chips.
 */
#include <iostream>
#include <map>

#include "common/experiment.h"

namespace vrddram::bench {
namespace {

core::CampaignConfig BuildFig10Campaign(const Flags& flags) {
  core::CampaignConfig config = CampaignConfigFromFlags(flags);
  config.patterns.assign(std::begin(dram::kAllDataPatterns),
                         std::end(dram::kAllDataPatterns));
  return config;
}

void AnalyzeFig10(const core::CampaignResult& result, Report* report) {
  std::ostream& out = report->out;
  const core::MinRdtSettings settings;

  PrintBanner(out,
              "Figure 10: expected normalized min RDT per data "
              "pattern and manufacturer");

  PrintShardSummary(out, result);

  const auto groups =
      GroupNormMins(result, settings, [](const core::SeriesRecord& r) {
        return std::pair{ManufacturerGroupName(r), r.pattern};
      });

  TextTable table(
      {"group", "pattern", "N", "median", "max", "mean"});
  std::map<std::string, dram::DataPattern> worst_pattern;
  std::map<std::string, double> worst_median;
  for (const auto& [key, per_n] : groups) {
    const auto& [group, pattern] = key;
    const double median_n1 =
        AddNormMinRows(table, {group, ToString(pattern)}, per_n, settings);
    if (median_n1 > worst_median[group]) {
      worst_median[group] = median_n1;
      worst_pattern[group] = pattern;
    }
  }
  table.Print(out);

  PrintBanner(out, "Findings 12-13 checks");
  std::map<dram::DataPattern, int> worst_counts;
  for (const auto& [group, pattern] : worst_pattern) {
    PrintCheck(out, "fig10.worst_pattern." + group, "varies per mfr",
               ToString(pattern));
    ++worst_counts[pattern];
  }
  PrintCheck(out, "fig10.single_worst_pattern_across_chips", "no",
             worst_counts.size() > 1 ? "no" : "yes");
}

ExperimentSpec Fig10Spec() {
  ExperimentSpec spec;
  spec.name = "fig10_data_pattern";
  spec.description =
      "Figure 10: expected normalized min RDT per data pattern";
  spec.flags = CampaignFlagSpecs("all", "6");
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--measurements=120"};
  spec.build_campaign = BuildFig10Campaign;
  spec.analyze = AnalyzeFig10;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig10Spec);

}  // namespace
}  // namespace vrddram::bench
