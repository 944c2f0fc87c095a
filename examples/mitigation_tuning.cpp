/**
 * @file
 * Closing the loop from profiling to mitigation configuration: profile
 * a module's minimum RDT with a realistic (small) number of
 * measurements, configure Graphene / PRAC / PARA / MINT with several
 * guardbands, and quantify both the performance cost (four-core
 * memory-intensive mixes) and the residual risk (probability that the
 * configured threshold still sits above an RDT the row can exhibit).
 */
#include <algorithm>
#include <iostream>

#include "common/table.h"
#include "core/guardband.h"
#include "core/rdt_profiler.h"
#include "core/series_analysis.h"
#include "memsim/system.h"
#include "vrd/chip_catalog.h"

int main() {
  using namespace vrddram;

  // --- Step 1: profile like a deployment would (few measurements) ---
  std::unique_ptr<dram::Device> device = vrd::BuildDevice("M1");
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 4096);
  if (!victim) {
    std::cerr << "no victim row\n";
    return 1;
  }
  const std::vector<std::int64_t> quick =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 10);
  std::int64_t profiled_min = -1;
  for (const std::int64_t rdt : quick) {
    if (rdt >= 0 && (profiled_min < 0 || rdt < profiled_min)) {
      profiled_min = rdt;
    }
  }
  std::cout << "profiled min RDT over 10 measurements: " << profiled_min
            << "\n";

  // Ground truth the deployment never sees: 2,000 more measurements.
  const std::vector<std::int64_t> deep =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 2000);
  const core::SeriesAnalysis truth = core::AnalyzeSeries(deep);
  std::cout << "true minimum over 2,000 measurements:   "
            << truth.min_rdt << "\n\n";

  // --- Step 2: sweep guardbands and mitigations -----------------------
  const auto mixes = memsim::MakeHighMemoryIntensityMixes();
  memsim::SystemConfig base_config;
  base_config.requests_per_core = 8000;
  const memsim::SystemResult baseline =
      memsim::SimulateMix(mixes[0], base_config);

  TextTable table({"guardband", "configured RDT", "covers true min?",
                   "Graphene", "PRAC", "PARA", "MINT"});
  for (const std::uint32_t guardband_pct : {0u, 10u, 25u, 50u}) {
    const std::uint64_t configured = core::GuardbandHammerCount(
        static_cast<std::uint64_t>(profiled_min), guardband_pct);
    std::vector<std::string> row = {
        Cell(guardband_pct) + "%", Cell(configured),
        configured <= static_cast<std::uint64_t>(truth.min_rdt)
            ? "yes"
            : "NO (insecure)"};
    for (const memsim::MitigationKind kind :
         {memsim::MitigationKind::kGraphene,
          memsim::MitigationKind::kPrac, memsim::MitigationKind::kPara,
          memsim::MitigationKind::kMint}) {
      memsim::SystemConfig config = base_config;
      config.mitigation = kind;
      config.rdt = std::max<std::uint64_t>(configured, 16);
      const memsim::SystemResult result =
          memsim::SimulateMix(mixes[0], config);
      row.push_back(
          Cell(memsim::NormalizedPerformance(result, baseline), 3));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::cout << "\nThe tension of §6: a configured threshold above any"
            << " RDT the row ever exhibits is insecure, while large"
            << " guardbands cost real performance (PARA and MINT most"
            << " of all at low thresholds).\n";
  return 0;
}
