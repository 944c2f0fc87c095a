/**
 * @file
 * Figure 5 / Finding 3: histogram of the number of consecutive
 * measurements across which a row's RDT keeps the same value,
 * aggregated across all tested rows. The paper reports that 79.0% of
 * state changes happen after every measurement and that runs of 14
 * equal values are seen only once.
 */
#include <iostream>

#include "common/experiment.h"
#include "stats/run_length.h"

namespace vrddram::bench {
namespace {

void AnalyzeFig05(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const auto measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  const std::uint64_t seed = flags.GetUint("seed");
  const auto devices = ResolveDevices(flags.GetString("devices"));
  const auto threads = static_cast<std::size_t>(flags.GetUint("threads"));

  PrintBanner(out,
              "Figure 5: run lengths of equal consecutive RDT "
              "measurements, aggregated across rows");

  const auto analyses =
      AnalyzeSingleRowSeries(devices, measurements, seed, threads);
  stats::RunLengthHistogram aggregate;
  for (const auto& entry : analyses) {
    if (entry) {
      stats::Merge(aggregate, entry->analysis.run_lengths);
    }
  }

  TextTable table({"consecutive equal measurements", "# of runs"});
  for (const auto& [length, count] : aggregate.counts) {
    table.AddRow({Cell(static_cast<std::uint64_t>(length)),
                  Cell(count)});
  }
  table.Print(out);

  PrintBanner(out, "Finding 3 checks");
  PrintCheck(out, "fig05.immediate_change_fraction", 0.790,
             aggregate.ImmediateChangeFraction(), 3);
  PrintCheck(out, "fig05.longest_run", "14 (observed once)",
             Cell(static_cast<std::uint64_t>(aggregate.LongestRun())));
}

ExperimentSpec Fig05Spec() {
  ExperimentSpec spec;
  spec.name = "fig05_run_lengths";
  spec.description =
      "Figure 5: run lengths of equal consecutive RDT measurements";
  spec.flags = {
      {"devices", "all", "device set: all, ddr4, hbm2, or comma list"},
      {"measurements", "100000", "measurements per victim row"},
      {"seed", "2025", "base RNG seed"},
      ThreadsFlagSpec(),
  };
  spec.smoke_args = {"--measurements=2000", "--devices=M1,S2"};
  spec.analyze = AnalyzeFig05;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig05Spec);

}  // namespace
}  // namespace vrddram::bench
