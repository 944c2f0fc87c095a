/**
 * @file
 * Table 7 (Appendix B): per-module summary - the median and maximum
 * expected normalized value of the minimum RDT across rows for
 * N = 1, 5, 50, 500 measurements, and the minimum observed RDT across
 * all measurements for tAggOn = tRAS and tAggOn = tREFI.
 */
#include <iostream>
#include <map>

#include "common/experiment.h"

namespace vrddram::bench {
namespace {

core::CampaignConfig BuildTable07Campaign(const Flags& flags) {
  core::CampaignConfig config = CampaignConfigFromFlags(flags);
  config.t_ons = {core::TOnChoice::kMinTras, core::TOnChoice::kTrefi};
  return config;
}

void AnalyzeTable07(const core::CampaignResult& result, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const core::CampaignConfig config = BuildTable07Campaign(flags);

  core::MinRdtSettings settings;
  settings.sample_sizes = {1, 5, 50, 500};

  PrintBanner(out, "Table 7: per-module VRD summary");

  PrintShardSummary(out, result);

  const auto norm_mins =
      GroupNormMins(result, settings,
                    [](const core::SeriesRecord& r) { return r.device; });
  // Per module, the smallest RDT measured at tAggOn = tRAS and tREFI.
  struct MinRdts {
    std::int64_t tras = -1;
    std::int64_t trefi = -1;
  };
  std::map<std::string, MinRdts> min_rdts;
  for (const core::SeriesRecord& record : result.records) {
    // GroupNormMins rejected a series without flips.
    const std::int64_t series_min = record.flips.run_values.front();
    MinRdts& mins = min_rdts[record.device];
    std::int64_t& slot = (record.t_on == core::TOnChoice::kMinTras)
                             ? mins.tras
                             : mins.trefi;
    if (slot < 0 || series_min < slot) {
      slot = series_min;
    }
  }

  TextTable table({"module", "N=1 med", "N=1 max", "N=5 med",
                   "N=5 max", "N=50 med", "N=50 max", "N=500 med",
                   "N=500 max", "minRDT tRAS", "minRDT tREFI"});
  for (const std::string& name : config.devices) {
    const auto it = norm_mins.find(name);
    if (it == norm_mins.end()) {
      continue;
    }
    std::vector<std::string> row = {name};
    for (const std::vector<double>& values : it->second) {
      const stats::BoxStats box = Box(values);
      row.push_back(Cell(box.median, 2));
      row.push_back(Cell(box.max, 2));
    }
    row.push_back(Cell(min_rdts[name].tras));
    row.push_back(Cell(min_rdts[name].trefi));
    table.AddRow(row);
  }
  table.Print(out);

  PrintBanner(out, "Table 7 spot checks");
  auto spot = [&](const std::string& name, double paper_med_n1,
                  std::int64_t paper_min_tras,
                  std::int64_t paper_min_trefi) {
    const auto it = norm_mins.find(name);
    if (it == norm_mins.end()) {
      return;
    }
    PrintCheck(out, "table07." + name + ".median_n1", paper_med_n1,
               Box(it->second[0]).median, 2);
    PrintCheck(out, "table07." + name + ".min_rdt_tras",
               Cell(paper_min_tras), Cell(min_rdts[name].tras));
    PrintCheck(out, "table07." + name + ".min_rdt_trefi",
               Cell(paper_min_trefi), Cell(min_rdts[name].trefi));
  };
  spot("H1", 1.07, 7835, 1941);
  spot("M1", 1.08, 4250, 1796);
  spot("S0", 1.04, 12152, 1965);
  spot("Chip0", 1.05, 45136, 1244);
}

ExperimentSpec Table07Spec() {
  ExperimentSpec spec;
  spec.name = "table07_module_summary";
  spec.description = "Table 7: per-module VRD summary (Appendix B)";
  spec.flags = CampaignFlagSpecs("all", "6");
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--measurements=120"};
  spec.build_campaign = BuildTable07Campaign;
  spec.analyze = AnalyzeTable07;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Table07Spec);

}  // namespace
}  // namespace vrddram::bench
