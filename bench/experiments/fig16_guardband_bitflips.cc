/**
 * @file
 * Figure 16 / §6.4: repeatedly hammer each tested row and count the
 * unique cells that still flip at hammer counts reduced by safety
 * margins below its (few-measurement) minimum RDT; each trial's flip
 * points answer all five margins. The paper observes up to
 * 5 unique flipping cells per row at a 10% margin (spanning up to 4
 * chips, at most 1 per ECC codeword) and none at margins above 10%.
 */
#include <algorithm>
#include <iostream>

#include "common/experiment.h"
#include "core/guardband.h"
#include "ecc/analysis.h"

namespace vrddram::bench {
namespace {

void AnalyzeFig16(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  core::GuardbandConfig config;
  ApplyRowStudyFlags(flags, &config);
  config.trials = static_cast<std::size_t>(flags.GetUint("trials"));

  PrintBanner(out,
              "Figure 16: unique bitflips per row when hammering below "
              "the measured min RDT with safety margins");

  const auto outcomes = core::RunGuardbandStudy(config);
  out << "tested " << outcomes.size()
      << " (row, pattern) combinations\n";

  for (const std::uint32_t margin : core::kGuardbandMargins) {
    PrintBanner(out, "Margin " + Cell(margin) +
                         "%: histogram of unique bitflips per "
                         "row across " +
                         Cell(static_cast<std::uint64_t>(
                             config.trials)) +
                         " trials");
    TextTable table({"unique bitflips", "# of rows"});
    for (const auto& [bitflips, rows] :
         core::BitflipHistogramAtMargin(outcomes, margin)) {
      table.AddRow({Cell(static_cast<std::uint64_t>(bitflips)),
                    Cell(static_cast<std::uint64_t>(rows))});
    }
    table.Print(out);
  }

  // ECC-codeword placement of the 10%-margin flips.
  std::size_t max_flips_10 = 0;
  std::size_t max_chips_10 = 0;
  std::size_t max_secded_10 = 0;
  std::size_t max_chipkill_10 = 0;
  std::size_t max_flips_above_10 = 0;
  for (const auto& outcome : outcomes) {
    for (const auto& per : outcome.per_margin) {
      if (per.margin == 10) {
        max_flips_10 = std::max(max_flips_10, per.unique_bitflips);
        max_chips_10 = std::max(max_chips_10, per.chips_touched);
        max_secded_10 =
            std::max(max_secded_10, per.max_per_secded_codeword);
        max_chipkill_10 =
            std::max(max_chipkill_10, per.max_per_chipkill_codeword);
      } else if (per.margin > 10) {
        max_flips_above_10 =
            std::max(max_flips_above_10, per.unique_bitflips);
      }
    }
  }

  PrintBanner(out, "§6.4 checks");
  PrintCheck(out, "fig16.max_unique_bitflips_at_10pct", "5",
             Cell(static_cast<std::uint64_t>(max_flips_10)));
  PrintCheck(out, "fig16.max_chips_touched_at_10pct", "4",
             Cell(static_cast<std::uint64_t>(max_chips_10)));
  PrintCheck(out, "fig16.max_bitflips_per_secded_codeword", "1",
             Cell(static_cast<std::uint64_t>(max_secded_10)));
  PrintCheck(out, "fig16.max_bitflips_per_chipkill_codeword", "1",
             Cell(static_cast<std::uint64_t>(max_chipkill_10)));
  PrintCheck(out, "fig16.max_unique_bitflips_above_10pct",
             "<= 1 (no more than one bitflip observed)",
             Cell(static_cast<std::uint64_t>(max_flips_above_10)));

  const double ber = core::WorstBitErrorRate(outcomes, 10, 65536);
  PrintCheck(out, "fig16.worst_bit_error_rate_at_10pct", 7.6e-5, ber, 6);
  out << "\n(That bit error rate feeds Table 3; see table03_ecc.)\n";
}

ExperimentSpec Fig16Spec() {
  ExperimentSpec spec;
  spec.name = "fig16_guardband_bitflips";
  spec.description =
      "Figure 16: unique bitflips when hammering below min RDT";
  spec.flags = RowStudyFlagSpecs(
      "ddr4", "9",
      {"trials", "10000",
       "hammer trials per (row, pattern); each trial answers every margin"});
  spec.flags.push_back(ThreadsFlagSpec());
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--trials=300"};
  spec.analyze = AnalyzeFig16;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig16Spec);

}  // namespace
}  // namespace vrddram::bench
