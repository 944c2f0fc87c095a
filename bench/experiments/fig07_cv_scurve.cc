/**
 * @file
 * Figure 7 / Findings 5-6: S-curve of the coefficient of variation of
 * RDT across all tested rows (max CV over all combinations of data
 * pattern, tAggOn, and temperature), plus the P50 and P100 example
 * rows and the fraction of rows exhibiting temporal variation under
 * all / at least one parameter combination.
 */
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/experiment.h"
#include "core/csv_export.h"

namespace vrddram::bench {
namespace {

/// The first n entries of `choices`, n read from --`key`. An n outside
/// 1-`N` is a FatalError naming the flag and its value: clamping it
/// would run a different campaign than asked for, and 0 an empty one.
template <typename T, std::size_t N>
std::vector<T> FirstChoices(const Flags& flags, const std::string& key,
                            const T (&choices)[N]) {
  const std::uint64_t n = flags.GetUint(key);
  VRD_FATAL_IF(n < 1 || n > N, "flag --" + key + "=" + std::to_string(n) +
                                   ": expected 1-" + std::to_string(N));
  return std::vector<T>(choices, choices + n);
}

core::CampaignConfig BuildFig07Campaign(const Flags& flags) {
  static constexpr core::TOnChoice kAllTOns[] = {
      core::TOnChoice::kMinTras, core::TOnChoice::kTrefi,
      core::TOnChoice::kNineTrefi};
  static constexpr Celsius kAllTemperatures[] = {50.0, 65.0, 80.0};
  core::CampaignConfig config = CampaignConfigFromFlags(flags);
  config.patterns = FirstChoices(flags, "patterns", dram::kAllDataPatterns);
  config.t_ons = FirstChoices(flags, "tons", kAllTOns);
  config.temperatures = FirstChoices(flags, "temps", kAllTemperatures);
  return config;
}

void AnalyzeFig07(const core::CampaignResult& result, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const core::CampaignConfig config = BuildFig07Campaign(flags);

  PrintBanner(out,
              "Figure 7: temporal variation of RDT across DRAM rows");
  out << config.devices.size() << " devices x "
      << config.rows_per_device << " rows x "
      << config.patterns.size() * config.t_ons.size() *
             config.temperatures.size()
      << " parameter combinations x " << config.measurements
      << " measurements\n";

  PrintShardSummary(out, result);

  const std::string csv_path = flags.GetString("csv");
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    VRD_FATAL_IF(!csv, "cannot open --csv path '" + csv_path +
                           "' for writing");
    core::WriteSummaryCsv(csv, result);
    out << "wrote per-series summary CSV to " << csv_path << "\n";
  }

  // Per (device, row): max CV across combinations, plus per-combo CVs
  // for the Finding 6 fractions and the worst max/min ratio.
  struct RowAgg {
    double max_cv = 0.0;
    double max_ratio = 1.0;
    bool varies_under_all = true;
    bool varies_under_any = false;
  };
  // Each series' CV, max/min and unique count come from its runs in
  // O(runs).
  std::map<std::pair<std::string, dram::RowAddr>, RowAgg> rows;
  for (const core::SeriesRecord& record : result.records) {
    const core::SortedFlips& flips = record.flips;
    RowAgg& agg = rows[{record.device, record.row}];
    agg.max_cv = std::max(agg.max_cv, core::ComputeMoments(flips).cv);
    agg.max_ratio = std::max(
        agg.max_ratio, static_cast<double>(flips.run_values.back()) /
                           static_cast<double>(flips.run_values.front()));
    if (flips.run_values.size() > 1) {
      agg.varies_under_any = true;
    } else {
      agg.varies_under_all = false;
    }
  }

  std::vector<double> cvs;
  double max_ratio = 1.0;
  std::size_t all_combo_count = 0;
  std::size_t any_combo_count = 0;
  for (const auto& [key, agg] : rows) {
    cvs.push_back(agg.max_cv);
    max_ratio = std::max(max_ratio, agg.max_ratio);
    if (agg.varies_under_all) {
      ++all_combo_count;
    }
    if (agg.varies_under_any) {
      ++any_combo_count;
    }
  }
  std::sort(cvs.begin(), cvs.end());

  TextTable scurve({"percentile of rows", "max CV across combos"});
  for (const double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0,
                         100.0}) {
    scurve.AddRow({Cell(p, 0),
                   Cell(stats::Percentile(cvs, p), 4)});
  }
  scurve.Print(out);

  PrintBanner(out, "Findings 5 and 6 checks");
  PrintCheck(out, "fig07.p50_cv", 0.03, stats::Percentile(cvs, 50.0), 4);
  PrintCheck(out, "fig07.max_cv", 0.52, cvs.back(), 4);
  PrintCheck(out, "fig07.max_max_over_min", 3.5, max_ratio, 2);
  PrintCheck(
      out, "fig07.rows_with_vrd_under_all_combos", "97.1%",
      Cell(100.0 * static_cast<double>(all_combo_count) /
               static_cast<double>(rows.size()), 1) + "%");
  PrintCheck(
      out, "fig07.rows_with_vrd_under_some_combo", "100%",
      Cell(100.0 * static_cast<double>(any_combo_count) /
               static_cast<double>(rows.size()), 1) + "%");
}

ExperimentSpec Fig07Spec() {
  ExperimentSpec spec;
  spec.name = "fig07_cv_scurve";
  spec.description =
      "Figure 7: S-curve of RDT coefficient of variation across rows";
  spec.flags = CampaignFlagSpecs(
      "all", "9",
      {{"patterns", "4", "number of data patterns (1-4)"},
       {"tons", "3", "number of tAggOn levels (1-3)"},
       {"temps", "3", "number of temperature levels (1-3)"},
       {"csv", "", "write the per-series summary CSV to this path"}});
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--measurements=120",
                     "--patterns=2", "--tons=2", "--temps=2"};
  spec.build_campaign = BuildFig07Campaign;
  spec.analyze = AnalyzeFig07;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig07Spec);

}  // namespace
}  // namespace vrddram::bench
