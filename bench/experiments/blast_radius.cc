/**
 * @file
 * Blast-radius characterization (the §3.1 methodology's premise and
 * prior work the paper builds on [165, 236]): hammer a single row at
 * increasing hammer counts and report which physical distances flip.
 * Distance-1 victims flip at the RDT; distance-2 victims need
 * ~1/d2_coupling times more activations; farther rows never flip.
 */
#include <iostream>

#include "common/error.h"
#include "common/experiment.h"

namespace vrddram::bench {
namespace {

void AnalyzeBlastRadius(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const std::string device_name = flags.GetString("device");
  const std::uint64_t seed = flags.GetUint("seed");

  auto device = vrd::BuildDevice(device_name, seed);
  auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());

  // An aggressor whose +-1 and +-2 neighbours all have weak cells, so
  // every distance has something to flip.
  dram::RowAddr aggressor = 0;
  for (dram::RowAddr row = 4; row < 4096; ++row) {
    const auto phys = device->mapper().ToPhysical(row);
    if (phys.value < 3 ||
        phys.value > device->org().LargestRowAddress() - 3) {
      continue;
    }
    bool all_weak = true;
    for (const std::int64_t d : {-2, -1, 1, 2}) {
      if (engine
              ->RowStateOf(0, dram::PhysicalRow{static_cast<dram::RowAddr>(
                                  phys.value + d)})
              .cells.empty()) {
        all_weak = false;
      }
    }
    if (all_weak) {
      aggressor = row;
      break;
    }
  }
  VRD_FATAL_IF(aggressor == 0, "no suitable aggressor found");

  PrintBanner(out, "Blast radius of single-sided hammering on " +
                       device_name + " (aggressor row " +
                       Cell(aggressor) + ")");

  const auto aggr_phys = device->mapper().ToPhysical(aggressor);
  const Tick t_ras = device->timing().tRAS;

  // Reference point: the distance-1 RDT.
  double rdt1 = -1.0;
  for (const std::int64_t d : {-1, 1}) {
    const double rdt = engine->MinFlipHammerCount(
        0, dram::PhysicalRow{static_cast<dram::RowAddr>(
               aggr_phys.value + d)},
        0x55, 0xAA, t_ras, 50.0, device->encoding(), device->Now());
    if (rdt > 0.0 && (rdt1 < 0.0 || rdt < rdt1)) {
      rdt1 = rdt;
    }
  }
  // Single-sided halves the coupling: scale the sweep accordingly.
  const auto base = static_cast<std::uint64_t>(rdt1 * 2.0);

  TextTable table({"hammer count (x d1 single-sided RDT)", "d=1 flips",
                   "d=2 flips", "d=3 flips"});
  for (const double factor : {0.5, 1.1, 4.0, 16.0, 64.0, 150.0}) {
    // Fresh device per step: cumulative dose would conflate rows.
    auto fresh = vrd::BuildDevice(device_name, seed);
    const auto hc = static_cast<std::uint64_t>(
        static_cast<double>(base) * factor);
    // Initialize the neighbourhood, hammer, read each distance.
    for (std::int64_t d = -3; d <= 3; ++d) {
      fresh->BulkInitializeRow(
          0,
          fresh->mapper().ToLogical(dram::PhysicalRow{
              static_cast<dram::RowAddr>(aggr_phys.value + d)}),
          d == 0 ? 0xAA : 0x55);
    }
    fresh->HammerSingleSided(0, aggressor, hc, t_ras);
    std::vector<std::string> row = {Cell(factor, 1) + "x"};
    for (const int distance : {1, 2, 3}) {
      int flips = 0;
      for (const std::int64_t sign : {-1, 1}) {
        const dram::RowAddr victim = fresh->mapper().ToLogical(
            dram::PhysicalRow{static_cast<dram::RowAddr>(
                aggr_phys.value + sign * distance)});
        fresh->Activate(0, victim);
        const auto data = fresh->ReadRow(0, victim);
        fresh->Precharge(0);
        flips += static_cast<int>(dram::CountDiffBits(data, 0x55));
      }
      row.push_back(Cell(flips));
    }
    table.AddRow(row);
  }
  table.Print(out);

  out << "\nThe blast radius: immediate neighbours flip first;"
      << " distance-2 rows need orders of magnitude more"
      << " activations (coupling ~" << Cell(1.0 / 0.02, 0)
      << "x weaker); distance-3 rows are out of reach.\n";
}

ExperimentSpec BlastRadiusSpec() {
  ExperimentSpec spec;
  spec.name = "blast_radius";
  spec.description =
      "Blast radius of single-sided hammering by physical distance";
  spec.flags = {
      {"device", "M1", "device to hammer"},
      {"seed", "2025", "base RNG seed"},
  };
  spec.smoke_args = {};
  spec.analyze = AnalyzeBlastRadius;
  return spec;
}

VRD_REGISTER_EXPERIMENT(BlastRadiusSpec);

}  // namespace
}  // namespace vrddram::bench
