/**
 * @file
 * Figure 13 / Finding 17: coefficient of variation across 1,000 RDT
 * measurements for rows with anti-cells vs. rows with true-cells in
 * module M0, across data patterns, temperature levels, and aggressor
 * row on times. The encoding of each row is reverse-engineered with
 * the retention-based methodology (write 0x00 / 0xFF, pause refresh
 * far beyond retention, observe the decay direction).
 */
#include <iostream>
#include <map>

#include "bender/host.h"
#include "common/experiment.h"

namespace vrddram::bench {
namespace {

void AnalyzeFig13(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const std::string device_name = flags.GetString("device");
  const auto want_anti =
      static_cast<std::size_t>(flags.GetUint("anti"));
  const auto want_true =
      static_cast<std::size_t>(flags.GetUint("true"));
  const auto measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  const std::uint64_t seed = flags.GetUint("seed");

  PrintBanner(out,
              "Figure 13: CV of RDT for anti-cell vs. true-cell rows "
              "(" + device_name + ")");

  auto device = vrd::BuildDevice(device_name, seed);
  bender::TestHost host(*device);
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);

  // Reverse-engineer row encodings until enough of each class is
  // found; keep only rows that are also disturbance-vulnerable.
  std::vector<std::pair<dram::RowAddr, dram::CellEncoding>> rows;
  std::size_t anti_found = 0;
  std::size_t true_found = 0;
  Rng pick(seed ^ 0x13);
  const dram::RowAddr last = device->org().LargestRowAddress();
  for (int attempts = 0;
       attempts < 4000 &&
       (anti_found < want_anti || true_found < want_true);
       ++attempts) {
    const auto row = static_cast<dram::RowAddr>(
        1 + pick.NextBelow(last - 1));
    const dram::PhysicalRow phys = device->mapper().ToPhysical(row);
    if (phys.value == 0 || phys.value >= last) {
      continue;
    }
    const auto encoding =
        host.DiscoverRowEncoding(0, row, 1800 * units::kSecond);
    if (!encoding) {
      continue;  // no retention-weak cell betrays this row
    }
    if (*encoding == dram::CellEncoding::kAntiCell &&
        anti_found >= want_anti) {
      continue;
    }
    if (*encoding == dram::CellEncoding::kTrueCell &&
        true_found >= want_true) {
      continue;
    }
    if (!profiler.GuessRdt(row)) {
      continue;  // not disturbance-vulnerable under the base setup
    }
    rows.emplace_back(row, *encoding);
    (*encoding == dram::CellEncoding::kAntiCell ? anti_found
                                                : true_found)++;
  }
  out << "rows: " << anti_found << " anti-cell, " << true_found
      << " true-cell\n";

  // CV per (row, sweep dimension): patterns at 50 degC / min tRAS;
  // temperatures with Rowstripe1; tAggOn values with Rowstripe1.
  struct Sweep {
    std::string subplot;
    dram::DataPattern pattern;
    core::TOnChoice t_on;
    Celsius temp;
  };
  std::vector<Sweep> sweeps;
  for (const dram::DataPattern p : dram::kAllDataPatterns) {
    sweeps.push_back({"data pattern", p, core::TOnChoice::kMinTras,
                      50.0});
  }
  for (const Celsius t : {50.0, 65.0, 80.0}) {
    sweeps.push_back({"temperature", dram::DataPattern::kRowstripe1,
                      core::TOnChoice::kMinTras, t});
  }
  for (const core::TOnChoice t :
       {core::TOnChoice::kMinTras, core::TOnChoice::kTrefi,
        core::TOnChoice::kNineTrefi}) {
    sweeps.push_back(
        {"tAggOn", dram::DataPattern::kRowstripe1, t, 50.0});
  }

  std::map<std::string, std::map<bool, std::vector<double>>> cv;
  for (const Sweep& sweep : sweeps) {
    device->SetTemperature(sweep.temp);
    core::ProfilerConfig spc;
    spc.pattern = sweep.pattern;
    spc.t_on = core::ResolveTOn(sweep.t_on, device->timing());
    core::RdtProfiler sweep_profiler(*device, spc);
    for (const auto& [row, encoding] : rows) {
      const auto guess = sweep_profiler.GuessRdt(row);
      if (!guess) {
        continue;
      }
      const auto series =
          sweep_profiler.MeasureSeries(row, *guess, measurements);
      const auto analysis = core::AnalyzeSeries(series, 1);
      cv[sweep.subplot]
        [encoding == dram::CellEncoding::kAntiCell]
            .push_back(analysis.cv);
    }
  }

  TextTable table({"subplot", "cell type", "min", "Q1", "median", "Q3",
                   "max", "mean"});
  std::map<std::string, std::pair<double, double>> medians;
  for (const auto& [subplot, per_class] : cv) {
    for (const auto& [is_anti, values] : per_class) {
      const stats::BoxStats box = Box(values);
      AddBoxRow(table, {subplot, is_anti ? "anti-cell" : "true-cell"}, box,
                4);
      if (is_anti) {
        medians[subplot].first = box.median;
      } else {
        medians[subplot].second = box.median;
      }
    }
  }
  table.Print(out);

  PrintBanner(out, "Finding 17 check");
  for (const auto& [subplot, pair] : medians) {
    const double ratio =
        (pair.second > 0.0) ? pair.first / pair.second : 0.0;
    PrintCheck(out, "fig13.anti_vs_true_median_cv_ratio." + subplot,
               "~1 (no significant difference)", ratio, 2);
  }
}

ExperimentSpec Fig13Spec() {
  ExperimentSpec spec;
  spec.name = "fig13_true_anti_cell";
  spec.description =
      "Figure 13: CV of RDT for anti-cell vs. true-cell rows";
  spec.flags = {
      {"device", "M0", "module whose rows are reverse-engineered"},
      {"anti", "12", "anti-cell rows to collect"},
      {"true", "18", "true-cell rows to collect"},
      {"measurements", "1000", "measurements per series"},
      {"seed", "2025", "base RNG seed"},
  };
  spec.smoke_args = {"--anti=3", "--true=3", "--measurements=120"};
  spec.analyze = AnalyzeFig13;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig13Spec);

}  // namespace
}  // namespace vrddram::bench
