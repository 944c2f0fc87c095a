/**
 * @file
 * Figure 4 + §4.1: histogram of the measured RDT values of one victim
 * row per device, with the number of bins equal to the number of
 * unique measured values (Finding 2: multiple states, most
 * distributions unimodal around a mean, HBM Chip1 bimodal), and the
 * chi-square goodness-of-fit test against a fitted normal (Finding 4:
 * an RDT measurement likely samples a normally distributed random
 * variable).
 */
#include <algorithm>
#include <iostream>

#include "common/experiment.h"
#include "stats/histogram.h"

namespace vrddram::bench {
namespace {

void AnalyzeFig04(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const auto measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  const std::uint64_t seed = flags.GetUint("seed");
  const auto devices = ResolveDevices(flags.GetString("devices"));
  const std::string bars_device = flags.GetString("bars");
  const auto threads = static_cast<std::size_t>(flags.GetUint("threads"));

  PrintBanner(out,
              "Figure 4: RDT histograms (bins = unique values) and "
              "chi-square normality per device");

  TextTable table({"device", "unique values", "modes", "chi2 p-value",
                   "normal at alpha=0.05", "mean", "stddev"});
  double min_p_unimodal = 1.0;
  std::vector<double> unimodal_ps;
  std::size_t m1_unique = 0;
  std::size_t chip1_modes = 0;
  const auto analyses =
      AnalyzeSingleRowSeries(devices, measurements, seed, threads);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (!analyses[i]) {
      continue;
    }
    const std::string& name = devices[i];
    const core::SeriesAnalysis& a = analyses[i]->analysis;
    table.AddRow({name, Cell(a.unique_values),
                  Cell(a.histogram_modes), Cell(a.normal_fit.p_value, 4),
                  a.normal_fit.NormalAt(0.05) ? "yes" : "no",
                  Cell(a.mean, 1), Cell(a.stddev, 1)});
    if (a.histogram_modes <= 1) {
      min_p_unimodal = std::min(min_p_unimodal, a.normal_fit.p_value);
      unimodal_ps.push_back(a.normal_fit.p_value);
    }
    if (name == "M1") {
      m1_unique = a.unique_values;
    }
    if (name == "Chip1") {
      chip1_modes = a.histogram_modes;
    }

    if (name == bars_device) {
      PrintBanner(out, "Histogram of " + name);
      const stats::Histogram& hist = a.histogram;
      const auto peak = hist.bins[hist.ModeBin()].count;
      for (const stats::HistogramBin& bin : hist.bins) {
        const auto width = static_cast<std::size_t>(
            60.0 * static_cast<double>(bin.count) /
            static_cast<double>(peak));
        out << Cell(bin.lo, 0) << "\t" << bin.count << "\t"
            << std::string(width, '#') << '\n';
      }
      out << '\n';
    }
  }
  table.Print(out);

  PrintBanner(out, "Findings 2 and 4 checks");
  PrintCheck(out, "fig04.m1_unique_values", "21",
             Cell(static_cast<std::uint64_t>(m1_unique)));
  PrintCheck(out, "fig04.chip1_bimodal", "2 modes",
             Cell(static_cast<std::uint64_t>(chip1_modes)) + " modes");
  PrintCheck(out, "fig04.min_p_value_unimodal_chips", 0.18,
             min_p_unimodal, 3);
  // Devices whose single tested row carries a strong rare deep-minimum
  // trap reject normality (the deep states form a left tail); the
  // majority are consistent with the paper's normal-fit observation.
  std::size_t passing = 0;
  for (const double p : unimodal_ps) {
    if (p > 0.05) {
      ++passing;
    }
  }
  PrintCheck(out, "fig04.unimodal_chips_consistent_with_normal",
             "all tested chips",
             Cell(static_cast<std::uint64_t>(passing)) + " of " +
                 Cell(static_cast<std::uint64_t>(unimodal_ps.size())));
}

ExperimentSpec Fig04Spec() {
  ExperimentSpec spec;
  spec.name = "fig04_rdt_histograms";
  spec.description =
      "Figure 4: per-device RDT histograms and chi-square normality";
  spec.flags = {
      {"devices", "all", "device set: all, ddr4, hbm2, or comma list"},
      {"measurements", "100000", "measurements per victim row"},
      {"seed", "2025", "base RNG seed"},
      {"bars", "M1",
       "device whose full ASCII histogram is printed (none skips)"},
      ThreadsFlagSpec(),
  };
  spec.smoke_args = {"--measurements=4000", "--devices=M1,Chip1",
                     "--bars=none"};
  spec.analyze = AnalyzeFig04;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig04Spec);

}  // namespace
}  // namespace vrddram::bench
