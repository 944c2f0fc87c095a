/**
 * @file
 * Figure 9 / Findings 10-11: the expected normalized value of the
 * minimum RDT after N measurements, grouped per manufacturer and per
 * (die density, die revision) combination. The VRD profile worsens
 * with density and with more advanced technology nodes.
 */
#include <algorithm>
#include <iostream>
#include <map>

#include "common/experiment.h"
#include "core/min_rdt.h"

namespace vrddram::bench {
namespace {

core::CampaignConfig BuildFig09Campaign(const Flags& flags) {
  core::CampaignConfig config = CampaignConfigFromFlags(flags);
  config.devices = vrd::Ddr4ModuleNames();
  return config;
}

void AnalyzeFig09(const core::CampaignResult& result, Report* report) {
  std::ostream& out = report->out;
  const core::MinRdtSettings settings;

  PrintBanner(out,
              "Figure 9: expected normalized min RDT by die density "
              "and die revision");

  PrintShardSummary(out, result);

  // Group rows by (manufacturer, density, die revision).
  struct GroupKey {
    vrd::Manufacturer mfr;
    std::uint32_t density;
    char rev;
    bool operator<(const GroupKey& other) const {
      return std::tie(mfr, density, rev) <
             std::tie(other.mfr, other.density, other.rev);
    }
  };
  std::map<GroupKey, std::vector<std::vector<double>>> groups;
  for (const core::SeriesRecord& record : result.records) {
    const core::RowMinRdtResult mc =
        core::AnalyzeRowSeries(record.flips, settings);
    auto& group =
        groups[GroupKey{record.mfr, record.density_gbit,
                        record.die_rev}];
    if (group.empty()) {
      group.resize(settings.sample_sizes.size());
    }
    for (std::size_t i = 0; i < mc.per_n.size(); ++i) {
      group[i].push_back(mc.per_n[i].expected_norm_min);
    }
  }

  TextTable table({"mfr", "density/rev", "N", "median", "max", "mean"});
  std::map<GroupKey, double> median_n1;
  for (const auto& [key, per_n] : groups) {
    for (std::size_t i = 0; i < settings.sample_sizes.size(); ++i) {
      const stats::BoxStats box = Box(per_n[i]);
      table.AddRow(
          {ToString(key.mfr),
           Cell(std::uint64_t{key.density}) + "Gb-" + key.rev,
           Cell(static_cast<std::uint64_t>(settings.sample_sizes[i])),
           Cell(box.median, 4), Cell(box.max, 4), Cell(box.mean, 4)});
      if (settings.sample_sizes[i] == 1) {
        median_n1[key] = box.median;
      }
    }
  }
  table.Print(out);

  PrintBanner(out, "Finding 11 check (Mfr. M trend)");
  // Paper: Mfr. M worsens from 1.06x (least advanced, 16Gb-E) to
  // 1.08x (most advanced, 16Gb-F) for the median row at N = 1.
  const GroupKey least{vrd::Manufacturer::kMfrM, 16, 'E'};
  const GroupKey most{vrd::Manufacturer::kMfrM, 16, 'F'};
  if (median_n1.contains(least) && median_n1.contains(most)) {
    PrintCheck(out, "fig09.mfr_m_least_advanced_median_n1", 1.06,
               median_n1[least], 3);
    PrintCheck(out, "fig09.mfr_m_most_advanced_median_n1", 1.08,
               median_n1[most], 3);
    PrintCheck(out, "fig09.vrd_worsens_with_technology", "yes",
               median_n1[most] > median_n1[least] ? "yes" : "no");
  }
}

ExperimentSpec Fig09Spec() {
  ExperimentSpec spec;
  spec.name = "fig09_density_die_rev";
  spec.description =
      "Figure 9: expected normalized min RDT by density and die rev";
  spec.flags = CampaignFlagSpecs("", "9");
  spec.smoke_args = {"--rows=3", "--measurements=120"};
  spec.build_campaign = BuildFig09Campaign;
  spec.analyze = AnalyzeFig09;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig09Spec);

}  // namespace
}  // namespace vrddram::bench
