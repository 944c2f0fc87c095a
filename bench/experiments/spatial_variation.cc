/**
 * @file
 * Spatial variation of RDT across rows (the premise the paper builds
 * on, [134]): the per-row minimum RDT measured once per row across a
 * bank region, as an S-curve. This is what makes exhaustive per-row
 * profiling necessary in the first place - and what VRD then shows to
 * be insufficient even per row.
 */
#include <algorithm>
#include <iostream>
#include <string>

#include "common/error.h"
#include "common/experiment.h"

namespace vrddram::bench {
namespace {

void AnalyzeSpatialVariation(const core::CampaignResult&,
                             Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const std::string device_name = flags.GetString("device");
  const auto rows = flags.GetUint("rows");
  const std::uint64_t seed = flags.GetUint("seed");
  // Row 0 is the bank edge, so rows 1..rows-1 are measured.
  VRD_FATAL_IF(rows < 2, "flag --rows=" + std::to_string(rows) +
                             ": expected at least 2");

  auto device = vrd::BuildDevice(device_name, seed);
  auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());

  std::vector<double> rdts;
  std::size_t invulnerable = 0;
  const dram::RowAddr last = device->org().LargestRowAddress();
  for (dram::RowAddr row = 1; row < rows && row < last; ++row) {
    const double rdt = engine->MinFlipHammerCount(
        0, device->mapper().ToPhysical(row), 0x55, 0xAA,
        device->timing().tRAS, 50.0, device->encoding(),
        device->Now());
    device->Sleep(units::kMillisecond);
    if (rdt > 0.0) {
      rdts.push_back(rdt);
    } else {
      ++invulnerable;
    }
  }

  VRD_FATAL_IF(rdts.empty(),
               "flag --rows=" + std::to_string(rows) +
                   ": expected at least one flipping row, but rows 1.." +
                   std::to_string(rows - 1) + " never flip");

  PrintBanner(out, "Spatial variation of RDT across the first " +
                       Cell(rows) + " rows of " + device_name);

  TextTable table({"percentile of rows", "RDT"});
  for (const double p :
       {0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    table.AddRow({Cell(p, 0), Cell(stats::Percentile(rdts, p), 0)});
  }
  table.Print(out);
  out << "\nrows with no disturbance-prone cell: " << invulnerable
      << " of " << rows << "\n";
  PrintCheck(out, "spatial.p100_over_p0",
             "order-of-magnitude spread across rows ([134])",
             stats::Percentile(rdts, 100.0) /
                 stats::Percentile(rdts, 0.0),
             1);
}

ExperimentSpec SpatialVariationSpec() {
  ExperimentSpec spec;
  spec.name = "spatial_variation";
  spec.description = "Spatial variation of RDT across rows (S-curve)";
  spec.flags = {
      {"device", "M1", "device to profile"},
      {"rows", "2048", "rows to measure"},
      {"seed", "2025", "base RNG seed"},
  };
  spec.smoke_args = {"--rows=256"};
  spec.analyze = AnalyzeSpatialVariation;
  return spec;
}

VRD_REGISTER_EXPERIMENT(SpatialVariationSpec);

}  // namespace
}  // namespace vrddram::bench
