/**
 * @file
 * Figure 14 / §6.3: four-core highly-memory-intensive workload
 * performance under Graphene, PRAC, PARA, and MINT, normalized to the
 * baseline system without read-disturbance mitigation, for two
 * threshold regimes (near-future RDT = 1024 and very-low RDT = 128)
 * each with 0%, 10%, 25%, and 50% safety margins.
 */
#include <iostream>
#include <vector>

#include "common/experiment.h"
#include "common/shards.h"
#include "core/guardband.h"
#include "memsim/system.h"

namespace vrddram::bench {
namespace {

using memsim::MakeHighMemoryIntensityMixes;
using memsim::MitigationKind;
using memsim::NormalizedPerformance;
using memsim::Scheduler;
using memsim::SimulateMix;
using memsim::SystemConfig;
using memsim::SystemResult;

void AnalyzeFig14(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const auto requests =
      static_cast<std::size_t>(flags.GetUint("requests"));
  const auto num_mixes =
      static_cast<std::size_t>(flags.GetUint("mixes"));
  const std::uint64_t seed = flags.GetUint("seed");
  const Scheduler scheduler = flags.GetBool("frfcfs")
                                  ? Scheduler::kFrFcfs
                                  : Scheduler::kInOrder;
  const auto threads = static_cast<std::size_t>(flags.GetUint("threads"));

  PrintBanner(out,
              "Figure 14: normalized performance of read-disturbance "
              "mitigations vs. configured RDT and guardband");

  // Safety margins are integer percents below the base RDT, applied
  // with the guardband study's GuardbandHammerCount.
  struct Config {
    std::uint64_t base_rdt;
    std::uint32_t margin_pct;
  };
  const Config configs[] = {{1024, 0},  {1024, 10}, {1024, 25},
                            {1024, 50}, {128, 0},   {128, 10},
                            {128, 25},  {128, 50}};
  const MitigationKind kinds[] = {
      MitigationKind::kGraphene, MitigationKind::kPrac,
      MitigationKind::kPara, MitigationKind::kMint};

  auto mixes = MakeHighMemoryIntensityMixes(42);
  if (mixes.size() > num_mixes) {
    mixes.resize(num_mixes);
  }
  const std::size_t num_kinds = std::size(kinds);
  auto config_for = [&](std::size_t m) {
    SystemConfig sc;
    sc.requests_per_core = requests;
    sc.seed = seed + m;
    sc.scheduler = scheduler;
    return sc;
  };

  // Every simulation is a pure function of (mix, SystemConfig), so each
  // one is a shard: first the baseline per mix, then every (config,
  // kind, mix) run. A mitigated slot keeps only its normalized
  // performance; a SystemResult holds every request latency.
  const std::vector<SystemResult> baselines =
      MapShards(mixes.size(), threads, [&](std::size_t m) {
        return SimulateMix(mixes[m], config_for(m));
      });
  const std::vector<double> normalized = MapShards(
      std::size(configs) * num_kinds * mixes.size(), threads,
      [&](std::size_t i) {
        const std::size_t m = i % mixes.size();
        const std::size_t k = i / mixes.size() % num_kinds;
        const Config& config = configs[i / mixes.size() / num_kinds];
        SystemConfig sc = config_for(m);
        sc.mitigation = kinds[k];
        sc.rdt = core::GuardbandHammerCount(config.base_rdt,
                                            config.margin_pct);
        return NormalizedPerformance(SimulateMix(mixes[m], sc),
                                     baselines[m]);
      });

  TextTable table({"RDT (margin)", "configured", "Graphene", "PRAC",
                   "PARA", "MINT"});
  std::vector<double> mean_of(std::size(configs) * num_kinds);
  for (std::size_t c = 0; c < std::size(configs); ++c) {
    std::vector<std::string> row = {
        Cell(configs[c].base_rdt) + " (" + Cell(configs[c].margin_pct) +
            "%)",
        Cell(core::GuardbandHammerCount(configs[c].base_rdt,
                                        configs[c].margin_pct))};
    for (std::size_t k = 0; k < num_kinds; ++k) {
      // Summed in mix order, so the mean is the same at any --threads.
      double sum = 0.0;
      for (std::size_t m = 0; m < mixes.size(); ++m) {
        sum += normalized[(c * num_kinds + k) * mixes.size() + m];
      }
      const double mean = sum / static_cast<double>(mixes.size());
      mean_of[c * num_kinds + k] = mean;
      row.push_back(Cell(mean, 3));
    }
    table.AddRow(row);
  }
  table.Print(out);

  // Tail-latency view of the worst configuration. The mix0 baseline is
  // baselines[0]: same mix, seed and config.
  {
    const SystemResult& base = baselines[0];
    SystemConfig sc = config_for(0);
    sc.mitigation = MitigationKind::kMint;
    sc.rdt = 64;
    const SystemResult worst = SimulateMix(mixes[0], sc);
    PrintBanner(out, "Latency (mix0): baseline vs MINT @ RDT 64");
    TextTable latency({"config", "avg (ns)", "p50 (ns)", "p99 (ns)"});
    latency.AddRow({"baseline", Cell(base.AvgLatencyNs(), 1),
                    Cell(base.LatencyPercentileNs(50.0), 1),
                    Cell(base.LatencyPercentileNs(99.0), 1)});
    latency.AddRow({"MINT @ 64", Cell(worst.AvgLatencyNs(), 1),
                    Cell(worst.LatencyPercentileNs(50.0), 1),
                    Cell(worst.LatencyPercentileNs(99.0), 1)});
    latency.Print(out);
  }

  PrintBanner(out, "§6.3 checks (losses relative to no margin)");
  auto loss_vs_margin0 = [&](std::size_t kind, std::size_t margin_cfg,
                             std::size_t base_cfg) {
    return 100.0 * (1.0 - mean_of[margin_cfg * num_kinds + kind] /
                              mean_of[base_cfg * num_kinds + kind]);
  };
  // At RDT = 128: 10% margin costs Graphene 1.0%, PRAC 0.0%,
  // PARA 5.9%, MINT 0.0%; 50% margin costs 8.5 / 7.6 / 35.0 / 45.0%.
  PrintCheck(out, "fig14.rdt128_margin10.graphene_loss_pct", 1.0,
             loss_vs_margin0(0, 5, 4), 1);
  PrintCheck(out, "fig14.rdt128_margin10.prac_loss_pct", 0.0,
             loss_vs_margin0(1, 5, 4), 1);
  PrintCheck(out, "fig14.rdt128_margin10.para_loss_pct", 5.9,
             loss_vs_margin0(2, 5, 4), 1);
  PrintCheck(out, "fig14.rdt128_margin10.mint_loss_pct", 0.0,
             loss_vs_margin0(3, 5, 4), 1);
  PrintCheck(out, "fig14.rdt128_margin50.graphene_loss_pct", 8.5,
             loss_vs_margin0(0, 7, 4), 1);
  PrintCheck(out, "fig14.rdt128_margin50.prac_loss_pct", 7.6,
             loss_vs_margin0(1, 7, 4), 1);
  PrintCheck(out, "fig14.rdt128_margin50.para_loss_pct", 35.0,
             loss_vs_margin0(2, 7, 4), 1);
  PrintCheck(out, "fig14.rdt128_margin50.mint_loss_pct", 45.0,
             loss_vs_margin0(3, 7, 4), 1);
}

ExperimentSpec Fig14Spec() {
  ExperimentSpec spec;
  spec.name = "fig14_mitigation_overhead";
  spec.description =
      "Figure 14: normalized performance of RD mitigations";
  spec.flags = {
      {"requests", "20000", "memory requests per core"},
      {"mixes", "15", "workload mixes to simulate"},
      {"seed", "2025", "base RNG seed"},
      {"frfcfs", "false", "use the FR-FCFS scheduler"},
      ThreadsFlagSpec(),
  };
  spec.smoke_args = {"--requests=2000", "--mixes=2"};
  spec.analyze = AnalyzeFig14;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig14Spec);

}  // namespace
}  // namespace vrddram::bench
