/**
 * @file
 * A small end-to-end characterization campaign in the style of the
 * paper's §5: pick several modules from the catalog, let the simulated
 * heater-pad + PID rig settle each test temperature, collect
 * measurement series per (row, data pattern, tAggOn), and derive a
 * per-module VRD profile with a guardband recommendation.
 *
 * This exercises the public API the benches are built from:
 * core::RunCampaign, whose records keep each series as sorted runs,
 * + core::ComputeMoments + core::AnalyzeRowSeries.
 */
#include <algorithm>
#include <iostream>
#include <map>

#include "common/table.h"
#include "core/campaign.h"
#include "core/min_rdt.h"

int main() {
  using namespace vrddram;

  core::CampaignConfig config;
  config.devices = {"H3", "M1", "S2"};
  config.rows_per_device = 6;
  config.measurements = 500;
  config.patterns = {dram::DataPattern::kCheckered0,
                     dram::DataPattern::kRowstripe1};
  config.t_ons = {core::TOnChoice::kMinTras, core::TOnChoice::kTrefi};
  config.temperatures = {50.0, 80.0};
  config.use_thermal_rig = true;  // settle through the PID controller
  config.scan_rows_per_region = 64;
  config.threads = 0;  // fan (device, temp) shards across all cores;
                       // results are bit-identical to threads = 1

  std::cout << "running campaign: " << config.devices.size()
            << " modules, " << config.rows_per_device << " rows each, "
            << config.measurements << " measurements per series...\n";
  // Per-shard telemetry (wall times, in completion order) goes to
  // stderr, so stdout is the same on every run.
  const core::CampaignResult result =
      core::RunCampaign(config, &std::cerr);

  // Aggregate per module.
  struct ModuleSummary {
    std::size_t series = 0;
    double worst_cv = 0.0;
    double worst_ratio = 1.0;
    std::int64_t min_rdt = -1;
    double worst_norm_min_n10 = 1.0;
  };
  std::map<std::string, ModuleSummary> modules;
  core::MinRdtSettings settings;
  settings.sample_sizes = {10};

  for (const core::SeriesRecord& record : result.records) {
    const core::SortedFlips& flips = record.flips;
    // Throws for a series without flips, before its runs are read.
    const double cv = core::ComputeMoments(flips).cv;
    const std::int64_t min_rdt = flips.run_values.front();
    ModuleSummary& summary = modules[record.device];
    ++summary.series;
    summary.worst_cv = std::max(summary.worst_cv, cv);
    summary.worst_ratio = std::max(
        summary.worst_ratio, static_cast<double>(flips.run_values.back()) /
                                 static_cast<double>(min_rdt));
    if (summary.min_rdt < 0 || min_rdt < summary.min_rdt) {
      summary.min_rdt = min_rdt;
    }
    const core::RowMinRdtResult mc =
        core::AnalyzeRowSeries(flips, settings);
    summary.worst_norm_min_n10 = std::max(
        summary.worst_norm_min_n10, mc.per_n[0].expected_norm_min);
  }

  TextTable table({"module", "series", "worst CV", "worst max/min",
                   "min observed RDT", "E[min|N=10]/min (worst)",
                   "recommended config"});
  for (const auto& [name, summary] : modules) {
    // A profiling flow that takes N = 10 measurements per row should
    // guard-band by at least the worst overestimation it would make,
    // plus headroom for states it has never seen (Takeaways 1-2).
    const double overestimate = summary.worst_norm_min_n10 - 1.0;
    const double guardband = std::max(0.10, 2.0 * overestimate);
    const auto configured = static_cast<std::int64_t>(
        static_cast<double>(summary.min_rdt) * (1.0 - guardband));
    table.AddRow({name, Cell(static_cast<std::uint64_t>(summary.series)),
                  Cell(summary.worst_cv, 4),
                  Cell(summary.worst_ratio, 2), Cell(summary.min_rdt),
                  Cell(summary.worst_norm_min_n10, 3),
                  "RDT <= " + Cell(configured) + " (" +
                      Cell(guardband * 100.0, 0) + "% guardband + ECC)"});
  }
  std::cout << '\n';
  table.Print(std::cout);

  std::cout << "\nNote (§6.4): even a 50% guardband does not guarantee"
            << " the true minimum is covered; pair the guardband with"
            << " SECDED or Chipkill ECC.\n";
  return 0;
}
