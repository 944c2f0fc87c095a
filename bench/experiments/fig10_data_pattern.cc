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
#include "core/min_rdt.h"

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

  // group -> pattern -> per-N list of expected normalized minima.
  std::map<std::string,
           std::map<dram::DataPattern, std::vector<std::vector<double>>>>
      groups;
  for (const core::SeriesRecord& record : result.records) {
    const core::RowMinRdtResult mc =
        core::AnalyzeRowSeries(record.flips, settings);
    auto& per_pattern =
        groups[ManufacturerGroupName(record)][record.pattern];
    if (per_pattern.empty()) {
      per_pattern.resize(settings.sample_sizes.size());
    }
    for (std::size_t i = 0; i < mc.per_n.size(); ++i) {
      per_pattern[i].push_back(mc.per_n[i].expected_norm_min);
    }
  }

  TextTable table(
      {"group", "pattern", "N", "median", "max", "mean"});
  std::map<std::string, dram::DataPattern> worst_pattern;
  std::map<std::string, double> worst_median;
  for (const auto& [group, per_pattern] : groups) {
    for (const auto& [pattern, per_n] : per_pattern) {
      for (std::size_t i = 0; i < settings.sample_sizes.size(); ++i) {
        if (per_n[i].empty()) {
          continue;
        }
        const stats::BoxStats box = Box(per_n[i]);
        table.AddRow(
            {group, ToString(pattern),
             Cell(static_cast<std::uint64_t>(settings.sample_sizes[i])),
             Cell(box.median, 4), Cell(box.max, 4), Cell(box.mean, 4)});
        if (settings.sample_sizes[i] == 1 &&
            box.median > worst_median[group]) {
          worst_median[group] = box.median;
          worst_pattern[group] = pattern;
        }
      }
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
