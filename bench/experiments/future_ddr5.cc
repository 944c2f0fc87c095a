/**
 * @file
 * Extension: the near-future DDR5 regime (§6.3's "RDT of 1024") on a
 * PRAC-capable device. Runs Algorithm 1 on the hypothetical device,
 * shows that its VRD is as severe as Finding 11 predicts for advanced
 * nodes, and demonstrates the closed loop the paper's §6.5 calls for:
 * an online profiler feeding the device's PRAC threshold, keeping the
 * victim safe while hammered far past its minimum RDT.
 */
#include <iostream>

#include "bender/host.h"
#include "common/error.h"
#include "common/experiment.h"
#include "core/guardband.h"
#include "core/online_profiler.h"
#include "core/security_eval.h"

namespace vrddram::bench {
namespace {

void AnalyzeFutureDdr5(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const auto measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  const std::uint64_t seed = flags.GetUint("seed");

  auto device = vrd::BuildFutureDdr5Device(seed);

  PrintBanner(out,
              "Near-future DDR5 (PRAC-capable, RDT ~1024 regime)");
  out << device->org().Describe() << "\n";

  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(8, 8192);
  VRD_FATAL_IF(!victim, "no victim row found");
  const auto series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, measurements);
  const core::SeriesAnalysis a = core::AnalyzeSeries(series);

  TextTable profile({"metric", "value"});
  profile.AddRow({"victim row", Cell(victim->row)});
  profile.AddRow({"RDT guess", Cell(victim->rdt_guess)});
  profile.AddRow({"min / max RDT",
                  Cell(a.min_rdt) + " / " + Cell(a.max_rdt)});
  profile.AddRow({"max/min", Cell(a.max_over_min, 3)});
  profile.AddRow({"CV", Cell(a.cv, 4)});
  profile.AddRow({"unique values", Cell(a.unique_values)});
  profile.Print(out);
  PrintCheck(out, "future.vrd_severe_at_advanced_node",
             "worse than today's chips (Finding 11 extrapolated)",
             Cell(a.cv, 4) + " CV");

  PrintBanner(out,
              "Closed loop: online profiler -> device PRAC threshold");
  core::OnlineRdtProfiler online(*device, victim->row);
  std::uint64_t reconfigurations = 0;
  for (int window = 0; window < 100; ++window) {
    if (online.RunMaintenanceWindow()) {
      const auto threshold = online.RecommendedThreshold();
      if (threshold) {
        device->SetPracThreshold(*threshold);
        ++reconfigurations;
      }
    }
    device->Sleep(units::kSecond);
  }
  const auto final_threshold = online.RecommendedThreshold();
  out << "maintenance windows: 100, reconfigurations: "
      << reconfigurations << ", final PRAC threshold: "
      << (final_threshold ? Cell(*final_threshold)
                          : std::string("none"))
      << "\n";

  if (final_threshold) {
    // PRAC is configured below the profiler's recommendation: the
    // counter fires early enough that in-flight activations cannot
    // carry the dose past the row's deepest observed states.
    const std::uint64_t prac_threshold =
        core::GuardbandHammerCount(*final_threshold, 40);
    device->SetPracThreshold(prac_threshold);

    // Initialize the victim neighbourhood, then attack well past the
    // observed minimum, servicing ALERT_n whenever the device raises
    // it (chunked hammering models the controller's reaction latency).
    bender::TestHost host(*device);
    host.InitializeNeighborhood(0, victim->row,
                                dram::DataPattern::kCheckered0);
    const std::uint64_t chunk = std::max<std::uint64_t>(
        1, prac_threshold / 4);
    for (int burst = 0; burst < 40; ++burst) {
      device->HammerDoubleSided(0, victim->row, chunk,
                                device->timing().tRAS);
      if (device->AlertPending()) {
        device->ServiceAlert();
      }
    }
    const auto flips = host.ReadAndCompareVictim(
        0, victim->row, dram::DataPattern::kCheckered0);
    PrintCheck(out, "future.prac_with_online_threshold_protects",
               "0 bitflips",
               Cell(static_cast<std::uint64_t>(flips.size())) +
                   " bitflips");
  }
}

ExperimentSpec FutureDdr5Spec() {
  ExperimentSpec spec;
  spec.name = "future_ddr5";
  spec.description =
      "Near-future DDR5 regime with an online-profiled PRAC loop";
  spec.flags = {
      {"measurements", "2000", "measurements per series"},
      {"seed", "2025", "base RNG seed"},
  };
  spec.smoke_args = {"--measurements=300"};
  spec.analyze = AnalyzeFutureDdr5;
  return spec;
}

VRD_REGISTER_EXPERIMENT(FutureDdr5Spec);

}  // namespace
}  // namespace vrddram::bench
