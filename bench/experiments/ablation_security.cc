/**
 * @file
 * Extension study (paper §6.5 future-work directions 2-3): how secure
 * is a statically guardbanded threshold over time, and what does
 * *online* RDT profiling with a runtime-configurable threshold buy?
 *
 * Part 1 - static guardbands: profile each row's minimum RDT with a
 * few measurements, configure an idealized tracker at margins below
 * it, and count attack episodes in which the row could still flip
 * (the §6.1 insecurity the paper warns about).
 *
 * Part 2 - online profiling: an OnlineRdtProfiler keeps re-measuring
 * during maintenance windows and tightens its threshold whenever a new
 * minimum state surfaces; compare breach rates and the performance
 * proxy (configured threshold level) against the static approach.
 */
#include <iostream>
#include <map>

#include "common/error.h"
#include "common/experiment.h"
#include "core/campaign.h"
#include "core/online_profiler.h"
#include "core/security_eval.h"

namespace vrddram::bench {
namespace {

void AnalyzeAblationSecurity(const core::CampaignResult&,
                             Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const auto devices = ResolveDevices(flags.GetString("devices"));
  const auto rows_per_device =
      static_cast<std::size_t>(flags.GetUint("rows"));
  const auto episodes = flags.GetUint("episodes");
  const std::uint64_t seed = flags.GetUint("seed");
  const std::vector<std::uint32_t> margins = {0, 10, 25, 50};
  // With no rows the CHECK reads "0 of 0"; with no episodes no
  // threshold is ever tested.
  VRD_FATAL_IF(rows_per_device < 1,
               "flag --rows=0: expected at least 1");
  VRD_FATAL_IF(episodes < 1, "flag --episodes=0: expected at least 1");

  PrintBanner(out,
              "Part 1: breach rate of statically guardbanded "
              "thresholds (profile with 5 measurements, then " +
                  Cell(episodes) + " attack episodes)");

  TextTable static_table({"device", "row", "margin", "threshold",
                          "breached episodes", "first breach"});
  // margin -> (breached rows, total rows)
  std::map<std::uint32_t, std::pair<std::size_t, std::size_t>> by_margin;
  for (const std::string& name : devices) {
    auto device = vrd::BuildDevice(name, seed);
    auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
    const auto rows = core::SelectVulnerableRows(
        *device, *engine, 0, std::max<std::size_t>(1, rows_per_device / 2),
        64, dram::DataPattern::kCheckered0, device->timing().tRAS);
    std::size_t used = 0;
    for (const dram::RowAddr row : rows) {
      if (used++ >= rows_per_device) {
        break;
      }
      const auto results = core::EvaluateGuardbands(
          *device, *engine, row, /*profile_measurements=*/5, margins,
          episodes);
      for (std::size_t m = 0; m < margins.size(); ++m) {
        const core::SecurityResult& r = results[m];
        static_table.AddRow(
            {name, Cell(row), Cell(margins[m]) + "%",
             Cell(r.configured_threshold), Cell(r.breached_episodes),
             r.first_breach ? Cell(*r.first_breach) : "never"});
        auto& [breached, total] = by_margin[margins[m]];
        total += 1;
        breached += r.Secure() ? 0 : 1;
      }
    }
  }
  static_table.Print(out);

  PrintBanner(out, "Rows with at least one breach, per margin");
  TextTable summary({"margin", "breached rows", "total rows"});
  for (const auto& [margin, counts] : by_margin) {
    summary.AddRow({Cell(margin) + "%",
                    Cell(static_cast<std::uint64_t>(counts.first)),
                    Cell(static_cast<std::uint64_t>(counts.second))});
  }
  summary.Print(out);
  PrintCheck(out, "security.margin0_rows_eventually_breach",
             "expected (Takeaway 1: few measurements miss minima)",
             Cell(static_cast<std::uint64_t>(by_margin[0].first)) +
                 " of " +
                 Cell(static_cast<std::uint64_t>(by_margin[0].second)));

  PrintBanner(out,
              "Part 2: online profiling with adaptive guardband");
  TextTable online_table({"device", "row", "windows", "discoveries",
                          "final threshold", "final guardband",
                          "breaches after convergence"});
  for (const std::string& name : devices) {
    auto device = vrd::BuildDevice(name, seed);
    auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
    const auto rows = core::SelectVulnerableRows(
        *device, *engine, 0, 1, 64, dram::DataPattern::kCheckered0,
        device->timing().tRAS);
    if (rows.empty()) {
      continue;
    }
    const dram::RowAddr row = rows.front();
    core::OnlineRdtProfiler online(*device, row);
    for (int window = 0; window < 200; ++window) {
      online.RunMaintenanceWindow();
      device->Sleep(units::kSecond);  // production time between windows
    }
    const auto threshold = online.RecommendedThreshold();
    if (!threshold) {
      continue;
    }
    const core::SecurityResult verdict = core::EvaluateThreshold(
        *device, *engine, row, *threshold, episodes,
        100 * units::kMillisecond);
    online_table.AddRow(
        {name, Cell(row),
         Cell(static_cast<std::uint64_t>(online.windows_run())),
         Cell(static_cast<std::uint64_t>(online.discoveries())),
         Cell(*threshold), Cell(online.guardband_pct() / 100.0, 2),
         Cell(verdict.breached_episodes)});
  }
  online_table.Print(out);
  out << "\nOnline profiling keeps discovering lower RDT states"
      << " over time and tightens the configured threshold"
      << " accordingly - the remedy the paper's §6.5 calls"
      << " for.\n";
}

ExperimentSpec AblationSecuritySpec() {
  ExperimentSpec spec;
  spec.name = "ablation_security";
  spec.description =
      "Security of static vs. online-profiled RDT guardbands";
  spec.flags = {
      {"devices", "H3,M1,S2",
       "device set: all, ddr4, hbm2, or comma list"},
      {"rows", "4", "victim rows per device"},
      {"episodes", "2000", "attack episodes per (row, margin)"},
      {"seed", "2025", "base RNG seed"},
  };
  spec.smoke_args = {"--devices=M1", "--rows=2", "--episodes=200"};
  spec.analyze = AnalyzeAblationSecurity;
  return spec;
}

VRD_REGISTER_EXPERIMENT(AblationSecuritySpec);

}  // namespace
}  // namespace vrddram::bench
