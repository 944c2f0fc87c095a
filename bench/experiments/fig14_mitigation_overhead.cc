/**
 * @file
 * Figure 14 / §6.3: four-core highly-memory-intensive workload
 * performance under Graphene, PRAC, PARA, and MINT, normalized to the
 * baseline system without read-disturbance mitigation, for two
 * threshold regimes (near-future RDT = 1024 and very-low RDT = 128)
 * each with 0%, 10%, 25%, and 50% safety margins.
 */
#include <iostream>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/experiment.h"
#include "common/shards.h"
#include "core/guardband.h"
#include "memsim/system.h"

namespace vrddram::bench {
namespace {

using memsim::MakeHighMemoryIntensityMixes;
using memsim::MakeMixStreams;
using memsim::MitigationKind;
using memsim::NormalizedPerformance;
using memsim::Scheduler;
using memsim::SimulateRuns;
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
  auto mixes = MakeHighMemoryIntensityMixes(42);
  // Mix 0 feeds the latency table and every mix's baseline must serve
  // requests, so neither count may be 0; past 15 there is no mix.
  VRD_FATAL_IF(num_mixes < 1 || num_mixes > mixes.size(),
               "flag --mixes=" + std::to_string(num_mixes) + ": expected 1-" +
                   std::to_string(mixes.size()));
  VRD_FATAL_IF(requests < 1, "flag --requests=0: expected at least 1");
  mixes.resize(num_mixes);

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

  const std::size_t num_kinds = std::size(kinds);
  auto config_for = [&](std::size_t m) {
    SystemConfig sc;
    sc.requests_per_core = requests;
    sc.seed = seed + m;
    sc.scheduler = scheduler;
    return sc;
  };

  // One shard per mix. Each core's request stream depends only on
  // (mix, seed, core), so the shard generates the mix's streams once
  // and SimulateRuns replays them in its baseline and its (config,
  // kind) runs, simulating each distinct run once. Only mix 0 records
  // latencies: its baseline and a MINT @ RDT 64 run feed the
  // tail-latency table.
  struct MixRuns {
    SystemResult baseline;
    SystemResult mint_rdt64;  // mix 0 only
    std::vector<double> normalized;  // indexed c * num_kinds + k
  };
  const std::vector<MixRuns> runs =
      MapShards(mixes.size(), threads, [&](std::size_t m) {
        SystemConfig sc = config_for(m);
        const memsim::MixStreams streams = MakeMixStreams(mixes[m], sc);
        sc.record_latencies = m == 0;
        std::vector<SystemConfig> run_configs = {sc};
        if (m == 0) {
          SystemConfig worst = sc;
          worst.mitigation = MitigationKind::kMint;
          worst.rdt = 64;
          run_configs.push_back(worst);
        }
        const std::size_t first_mitigated = run_configs.size();
        sc.record_latencies = false;
        for (const Config& config : configs) {
          sc.rdt = core::GuardbandHammerCount(config.base_rdt,
                                              config.margin_pct);
          for (const MitigationKind kind : kinds) {
            sc.mitigation = kind;
            run_configs.push_back(sc);
          }
        }
        std::vector<SystemResult> results =
            SimulateRuns(mixes[m], run_configs, streams);
        MixRuns mix_runs;
        for (std::size_t r = first_mitigated; r < results.size(); ++r) {
          mix_runs.normalized.push_back(
              NormalizedPerformance(results[r], results[0]));
        }
        mix_runs.baseline = std::move(results[0]);
        if (m == 0) {
          mix_runs.mint_rdt64 = std::move(results[1]);
        }
        return mix_runs;
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
      for (const MixRuns& mix_runs : runs) {
        sum += mix_runs.normalized[c * num_kinds + k];
      }
      const double mean = sum / static_cast<double>(mixes.size());
      mean_of[c * num_kinds + k] = mean;
      row.push_back(Cell(mean, 3));
    }
    table.AddRow(row);
  }
  table.Print(out);

  // Tail-latency view of the worst configuration.
  {
    const SystemResult& base = runs[0].baseline;
    const SystemResult& worst = runs[0].mint_rdt64;
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
