/**
 * @file
 * Ablation of the trap fault model (DESIGN.md §4): which component of
 * the model produces which paper phenomenon? Rebuilds an M1-like
 * device with individual components disabled and reports the headline
 * VRD statistics for each variant:
 *
 *  - full model
 *  - no analog measurement noise  (normal body disappears)
 *  - no fast traps                (multi-state structure shrinks)
 *  - no rare traps                (deep late minima disappear)
 *  - no heavy traps               (worst-case CV tail disappears)
 *  - deterministic (nothing)      (VRD disappears entirely)
 */
#include <algorithm>
#include <functional>
#include <iostream>
#include <optional>

#include "common/experiment.h"

namespace vrddram::bench {
namespace {

struct Variant {
  const char* name;
  std::function<void(vrd::FaultProfile&)> tweak;
};

void AnalyzeAblationFaultModel(const core::CampaignResult&,
                               Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const auto measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  const std::uint64_t seed = flags.GetUint("seed");

  const Variant variants[] = {
      {"full model", [](vrd::FaultProfile&) {}},
      {"no measurement noise",
       [](vrd::FaultProfile& p) { p.measurement_noise_sigma = 0.0; }},
      {"no fast traps",
       [](vrd::FaultProfile& p) { p.fast_trap_mean = 0.0; }},
      {"no rare traps",
       [](vrd::FaultProfile& p) { p.rare_trap_prob = 0.0; }},
      {"no heavy traps",
       [](vrd::FaultProfile& p) { p.heavy_trap_prob = 0.0; }},
      {"deterministic",
       [](vrd::FaultProfile& p) {
         p.measurement_noise_sigma = 0.0;
         p.fast_trap_mean = 0.0;
         p.rare_trap_prob = 0.0;
         p.heavy_trap_prob = 0.0;
       }},
  };

  PrintBanner(out,
              "Fault-model ablation on an M1-like device (" +
                  std::to_string(measurements) + " measurements)");
  TextTable table({"variant", "unique", "cv", "max/min",
                   "first-min idx", "imm change", "chi2 p"});

  for (const Variant& variant : variants) {
    vrd::TestedChip chip = vrd::MakeTestedChip("M1", seed);
    variant.tweak(chip.fault);
    auto engine = std::make_unique<vrd::TrapFaultEngine>(
        chip.fault, chip.device.seed, chip.device.org);
    dram::Device device(chip.device, std::move(engine));
    device.SetTemperature(80.0);

    core::ProfilerConfig pc;
    core::RdtProfiler profiler(device, pc);
    // Prefer a victim row that carries a rare (deep-minimum) trap so
    // the "no rare traps" variant has something to lose.
    auto* raw_engine =
        dynamic_cast<vrd::TrapFaultEngine*>(&device.model());
    std::optional<core::RdtProfiler::Victim> victim;
    dram::RowAddr begin = 1;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto candidate = profiler.FindVictim(begin, 8192);
      if (!candidate) {
        break;
      }
      bool has_rare = false;
      const auto phys = device.mapper().ToPhysical(candidate->row);
      const auto& state = raw_engine->RowStateOf(0, phys);
      for (const auto& cell : state.cells) {
        for (const auto& trap : state.CellTraps(cell)) {
          if (trap.occupancy < 0.01) {
            has_rare = true;
          }
        }
      }
      victim = candidate;
      if (has_rare) {
        break;
      }
      begin = candidate->row + 1;
    }
    if (!victim) {
      table.AddRow({variant.name, "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const auto series = profiler.MeasureSeries(
        victim->row, victim->rdt_guess, measurements);
    const auto flips = std::ranges::count_if(
        series, [](std::int64_t v) { return v >= 0; });
    if (static_cast<std::size_t>(flips) < core::kMinAnalyzedFlips) {
      table.AddRow({variant.name, "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const core::SeriesAnalysis a = core::AnalyzeSeries(series);
    table.AddRow({variant.name, Cell(a.unique_values), Cell(a.cv, 4),
                  Cell(a.max_over_min, 3),
                  Cell(static_cast<std::uint64_t>(a.first_min_index)),
                  Cell(a.immediate_change_fraction, 2),
                  Cell(a.normal_fit.p_value, 3)});
  }
  table.Print(out);

  out << "\nReading guide:\n"
      << "  noise   -> the near-normal histogram body (Fig. 4)\n"
      << "  fast    -> extra discrete states / state churn\n"
      << "  rare    -> deep minima appearing only after many\n"
      << "             measurements (Fig. 1)\n"
      << "  heavy   -> the worst-case CV tail (Fig. 7 P100)\n"
      << "  deterministic -> a single repeated value: no VRD\n";
}

ExperimentSpec AblationFaultModelSpec() {
  ExperimentSpec spec;
  spec.name = "ablation_fault_model";
  spec.description =
      "Ablation of the trap fault model's components";
  spec.flags = {
      {"measurements", "20000", "measurements per series"},
      {"seed", "2025", "base RNG seed"},
  };
  spec.smoke_args = {"--measurements=2000"};
  spec.analyze = AnalyzeAblationFaultModel;
  return spec;
}

VRD_REGISTER_EXPERIMENT(AblationFaultModelSpec);

}  // namespace
}  // namespace vrddram::bench
