/**
 * @file
 * Figure 8 (and its expanded version, Figure 25) / Findings 7-9:
 * exact analysis of identifying the minimum RDT. Top panel:
 * distribution (across rows) of the probability of finding the series
 * minimum with N = 1, 3, 5, 10, 50, 500 uniformly drawn measurements.
 * Middle: distribution of the expected value of the minimum found,
 * normalized to the series minimum. Bottom: the (probability, expected
 * normalized minimum) scatter per row.
 */
#include <algorithm>
#include <iostream>

#include "common/experiment.h"
#include "core/min_rdt.h"

namespace vrddram::bench {
namespace {

void AnalyzeFig08(const core::CampaignResult& result, Report* report) {
  std::ostream& out = report->out;
  const core::MinRdtSettings settings;

  PrintBanner(out,
              "Figure 8: probability of finding the minimum RDT and "
              "expected normalized minimum vs. N measurements");

  PrintShardSummary(out, result);

  std::vector<std::vector<double>> prob_by_n(
      settings.sample_sizes.size());
  std::vector<std::vector<double>> norm_by_n(
      settings.sample_sizes.size());
  // Rows with low probability and high expected normalized minimum are
  // the worst VRD rows (top-left corner in the paper's Fig. 25 plot).
  // N = 1 is the first sample size; its P(find min) is k/L, so the
  // classes are decided on the integer counts.
  std::size_t low_prob_rows = 0;
  std::size_t high_prob_rows = 0;
  double worst_norm_low_prob = 1.0;
  double sum_norm_low_prob = 0.0;
  for (const core::SeriesRecord& record : result.records) {
    const core::RowMinRdtResult mc =
        core::AnalyzeRowSeries(record.flips, settings);
    for (std::size_t i = 0; i < mc.per_n.size(); ++i) {
      prob_by_n[i].push_back(mc.per_n[i].prob_find_min);
      norm_by_n[i].push_back(mc.per_n[i].expected_norm_min);
    }
    if (core::SingleDrawFindMinAtMost(mc, 1)) {
      ++low_prob_rows;
      const double norm_n1 = mc.per_n[0].expected_norm_min;
      worst_norm_low_prob = std::max(worst_norm_low_prob, norm_n1);
      sum_norm_low_prob += norm_n1;
    }
    if (core::SingleDrawFindMinAtLeast(mc, 999)) {
      ++high_prob_rows;
    }
  }

  for (const auto& [title, by_n] :
       {std::pair{"Top: P(find min RDT) across rows", &prob_by_n},
        std::pair{"Middle: expected normalized value of the minimum RDT",
                  &norm_by_n}}) {
    PrintBanner(out, title);
    TextTable panel({"N", "min", "Q1", "median", "Q3", "max", "mean"});
    for (std::size_t i = 0; i < settings.sample_sizes.size(); ++i) {
      AddBoxRow(panel,
                {Cell(static_cast<std::uint64_t>(settings.sample_sizes[i]))},
                Box((*by_n)[i]), 4);
    }
    panel.Print(out);
  }

  PrintBanner(out,
              "Bottom (Fig. 25): per-row scatter summary for N = 1");
  const auto total_rows = static_cast<double>(prob_by_n[0].size());
  out << "rows analyzed: " << prob_by_n[0].size() << "\n";

  PrintBanner(out, "Findings 7-9 checks");
  PrintCheck(out, "fig08.p50_prob_find_min_n1", 0.002,
             stats::Percentile(prob_by_n[0], 50.0), 4);
  PrintCheck(out, "fig08.p50_prob_find_min_n500", 0.753,
             stats::Percentile(prob_by_n.back(), 50.0), 3);
  PrintCheck(out, "fig08.rows_with_prob_le_0.1pct_n1", "22.4%",
             Cell(100.0 * static_cast<double>(low_prob_rows) /
                      total_rows, 1) + "%");
  PrintCheck(out, "fig08.rows_with_prob_ge_99.9pct_n1", "5.4%",
             Cell(100.0 * static_cast<double>(high_prob_rows) /
                      total_rows, 1) + "%");
  PrintCheck(out, "fig08.worst_norm_min_among_low_prob_rows", 1.9,
             worst_norm_low_prob, 2);
  if (low_prob_rows > 0) {
    PrintCheck(out, "fig08.mean_norm_min_among_low_prob_rows", 1.1,
               sum_norm_low_prob / static_cast<double>(low_prob_rows),
               2);
  }
}

ExperimentSpec Fig08Spec() {
  ExperimentSpec spec;
  spec.name = "fig08_min_rdt_probability";
  spec.description =
      "Figure 8: probability of finding the minimum RDT";
  spec.flags = CampaignFlagSpecs("all", "9");
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--measurements=150"};
  spec.build_campaign = CampaignConfigFromFlags;
  spec.analyze = AnalyzeFig08;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig08Spec);

}  // namespace
}  // namespace vrddram::bench
