/**
 * @file
 * Figure 9 / Findings 10-11: the expected normalized value of the
 * minimum RDT after N measurements, grouped per manufacturer and per
 * (die density, die revision) combination. The VRD profile worsens
 * with density and with more advanced technology nodes.
 */
#include <iostream>
#include <map>
#include <tuple>

#include "common/experiment.h"

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
  using GroupKey = std::tuple<vrd::Manufacturer, std::uint32_t, char>;
  const auto groups =
      GroupNormMins(result, settings, [](const core::SeriesRecord& r) {
        return GroupKey{r.mfr, r.density_gbit, r.die_rev};
      });

  TextTable table({"mfr", "density/rev", "N", "median", "max", "mean"});
  std::map<GroupKey, double> median_n1;
  for (const auto& [key, per_n] : groups) {
    const auto& [mfr, density, rev] = key;
    median_n1[key] = AddNormMinRows(
        table,
        {ToString(mfr), Cell(std::uint64_t{density}) + "Gb-" + rev},
        per_n, settings);
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
