/**
 * @file
 * Figure 15 / §6.4: the probability of finding the minimum RDT within
 * a safety margin (10%..50%) using N < 1,000 measurements - mean
 * (circles) and minimum (bars) across all tested rows and parameter
 * combinations. Even N = 500 with a 50% margin does not guarantee the
 * minimum is identified.
 */
#include <algorithm>
#include <iostream>

#include "common/experiment.h"
#include "core/min_rdt.h"

namespace vrddram::bench {
namespace {

core::CampaignConfig BuildFig15Campaign(const Flags& flags) {
  core::CampaignConfig config = CampaignConfigFromFlags(flags);
  // Two representative parameter combinations keep the run short; add
  // more with --patterns (the trend is unchanged).
  config.patterns = {dram::DataPattern::kCheckered0,
                     dram::DataPattern::kRowstripe1};
  return config;
}

void AnalyzeFig15(const core::CampaignResult& result, Report* report) {
  std::ostream& out = report->out;
  const core::MinRdtSettings settings;

  PrintBanner(out,
              "Figure 15: probability of finding the min RDT within a "
              "safety margin, vs. N measurements");

  PrintShardSummary(out, result);

  // per (N index, margin index): list across rows.
  std::vector<std::vector<std::vector<double>>> probs(
      settings.sample_sizes.size(),
      std::vector<std::vector<double>>(settings.margins.size()));
  for (const core::SeriesRecord& record : result.records) {
    const core::RowMinRdtResult mc =
        core::AnalyzeRowSeries(record.flips, settings);
    for (std::size_t n = 0; n < settings.sample_sizes.size(); ++n) {
      for (std::size_t m = 0; m < settings.margins.size(); ++m) {
        probs[n][m].push_back(mc.per_n[n].prob_within_margin[m]);
      }
    }
  }

  TextTable table({"N", "margin", "mean P(within margin)",
                   "min P(within margin)"});
  double mean_n50_m10 = 0.0;
  double min_n50_m10 = 0.0;
  double min_n500_m50 = 0.0;
  for (std::size_t n = 0; n < settings.sample_sizes.size(); ++n) {
    for (std::size_t m = 0; m < settings.margins.size(); ++m) {
      const auto& values = probs[n][m];
      const double mean = stats::Mean(values);
      const double mn = *std::min_element(values.begin(), values.end());
      table.AddRow(
          {Cell(static_cast<std::uint64_t>(settings.sample_sizes[n])),
           Cell(std::uint64_t{settings.margins[m]}) + "%", Cell(mean, 4),
           Cell(mn, 4)});
      if (settings.sample_sizes[n] == 50 && settings.margins[m] == 10) {
        mean_n50_m10 = mean;
        min_n50_m10 = mn;
      }
      if (settings.sample_sizes[n] == 500 && settings.margins[m] == 50) {
        min_n500_m50 = mn;
      }
    }
  }
  table.Print(out);

  PrintBanner(out, "§6.4 checks");
  PrintCheck(out, "fig15.mean_prob_n50_margin10", 0.991, mean_n50_m10,
             3);
  PrintCheck(out, "fig15.min_prob_n50_margin10", 0.045, min_n50_m10, 3);
  PrintCheck(out, "fig15.min_prob_n500_margin50", 0.749, min_n500_m50,
             3);
}

ExperimentSpec Fig15Spec() {
  ExperimentSpec spec;
  spec.name = "fig15_guardband_probability";
  spec.description =
      "Figure 15: probability of finding the min RDT within a margin";
  spec.flags = CampaignFlagSpecs("all", "6");
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--measurements=150"};
  spec.build_campaign = BuildFig15Campaign;
  spec.analyze = AnalyzeFig15;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig15Spec);

}  // namespace
}  // namespace vrddram::bench
