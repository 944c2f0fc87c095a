/**
 * @file
 * Figure 1: the read disturbance threshold of one DRAM row over
 * 100,000 repeated measurements. Left panel: per-1,000-measurement
 * chunks (mean and min/max range). Right panel: zoom on the last
 * 1,000 measurements. Also reports when the series minimum first
 * appears - the paper observes it after as many as 94,467
 * measurements across all tested rows (Finding 1 / §1).
 */
#include <algorithm>
#include <iostream>

#include "common/error.h"
#include "common/experiment.h"

namespace vrddram::bench {
namespace {

void AnalyzeFig01(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const std::string device = flags.GetString("device");
  const auto measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  const std::uint64_t seed = flags.GetUint("seed");
  const std::string scan = flags.GetString("scan");
  const auto threads = static_cast<std::size_t>(flags.GetUint("threads"));
  // A bad --scan fails before the headline row is measured.
  const std::vector<std::string> scan_devices =
      scan == "none" ? std::vector<std::string>{}
                     : ResolveDevices(scan, "scan");

  PrintBanner(out, "Figure 1: RDT of one row over " +
                       std::to_string(measurements) +
                       " repeated measurements (" + device + ")");

  SingleRowSeries data;
  VRD_FATAL_IF(!CollectSingleRowSeries(device, measurements, seed, &data),
               "no victim row found on " + device);
  const core::SeriesAnalysis analysis = core::AnalyzeSeries(data.series);

  out << "victim row " << data.row << ", RDT_guess " << data.rdt_guess
      << "\n\n";

  // Left panel: one row per 1,000-measurement chunk.
  TextTable chunks({"measurements", "mean RDT", "min RDT", "max RDT"});
  const std::size_t chunk = 1000;
  for (std::size_t base = 0; base < data.series.size(); base += chunk) {
    const std::size_t end = std::min(base + chunk, data.series.size());
    double sum = 0.0;
    std::int64_t mn = -1;
    std::int64_t mx = -1;
    std::size_t n = 0;
    for (std::size_t i = base; i < end; ++i) {
      const std::int64_t v = data.series[i];
      if (v < 0) {
        continue;
      }
      sum += static_cast<double>(v);
      mn = (mn < 0) ? v : std::min(mn, v);
      mx = std::max(mx, v);
      ++n;
    }
    if (n == 0 || base % (chunk * 10) != 0) {
      continue;  // print every 10th chunk to keep the table readable
    }
    chunks.AddRow({Cell(base) + "-" + Cell(end - 1),
                   Cell(sum / static_cast<double>(n), 1), Cell(mn),
                   Cell(mx)});
  }
  chunks.Print(out);

  // Right panel: zoom on the last 1,000 measurements.
  PrintBanner(out, "Zoom: last 1,000 measurements");
  const std::size_t tail_base =
      data.series.size() > chunk ? data.series.size() - chunk : 0;
  std::vector<std::int64_t> tail(data.series.begin() +
                                     static_cast<std::ptrdiff_t>(tail_base),
                                 data.series.end());
  const core::SeriesAnalysis tail_analysis = core::AnalyzeSeries(tail);
  TextTable zoom({"metric", "value"});
  zoom.AddRow({"min", Cell(tail_analysis.min_rdt)});
  zoom.AddRow({"max", Cell(tail_analysis.max_rdt)});
  zoom.AddRow({"mean", Cell(tail_analysis.mean, 1)});
  zoom.AddRow({"unique values", Cell(tail_analysis.unique_values)});
  zoom.Print(out);

  PrintBanner(out, "Finding 1 summary");
  out << "series min " << analysis.min_rdt << ", max " << analysis.max_rdt
      << " (max/min " << Cell(analysis.max_over_min, 3) << ")\n";
  out << "minimum first appears at measurement #"
      << analysis.first_min_index << " (multiplicity "
      << analysis.min_multiplicity << ")\n";
  PrintCheck(out, "fig01.min_appears_after_many_measurements",
             "16,926 (example row)",
             Cell(static_cast<std::uint64_t>(analysis.first_min_index)));

  if (scan != "none") {
    PrintBanner(out, "Worst-case first-minimum index across devices");
    TextTable table(
        {"device", "row", "first min at", "min RDT", "max/min"});
    // Same (device, measurements, seed) key as fig03/04/05, so one
    // run measures each device's series once.
    const std::size_t scan_measurements =
        std::min<std::size_t>(measurements, 100000);
    const auto scanned = AnalyzeSingleRowSeries(
        scan_devices, scan_measurements, seed, threads);
    std::size_t worst = 0;
    for (std::size_t i = 0; i < scan_devices.size(); ++i) {
      if (!scanned[i]) {
        continue;
      }
      const core::SeriesAnalysis& a = scanned[i]->analysis;
      table.AddRow({scan_devices[i], Cell(scanned[i]->row),
                    Cell(static_cast<std::uint64_t>(a.first_min_index)),
                    Cell(a.min_rdt), Cell(a.max_over_min, 2)});
      worst = std::max(worst, a.first_min_index);
    }
    table.Print(out);
    PrintCheck(out, "fig01.worst_first_min_index", "94,467",
               Cell(static_cast<std::uint64_t>(worst)));
  }
}

ExperimentSpec Fig01Spec() {
  ExperimentSpec spec;
  spec.name = "fig01_rdt_series";
  spec.description =
      "Figure 1: RDT of one row over 100k repeated measurements";
  spec.flags = {
      {"device", "H1", "device to measure the headline row on"},
      {"measurements", "100000", "measurements of the victim row"},
      {"seed", "2025", "base RNG seed"},
      {"scan", "all",
       "device set for the worst-case first-minimum scan (none skips)"},
      ThreadsFlagSpec(),
  };
  spec.smoke_args = {"--measurements=2000", "--scan=none"};
  spec.analyze = AnalyzeFig01;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig01Spec);

}  // namespace
}  // namespace vrddram::bench
