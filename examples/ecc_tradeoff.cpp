/**
 * @file
 * The §6.4 pipeline as an application: run the guardband bitflip study
 * on a couple of modules, convert the worst observed unique-bitflip
 * count into a bit error rate, and evaluate what SEC, SECDED, and
 * Chipkill-like SSC ECC would make of it - including an exact
 * cross-check that decodes every likely error pattern with the real
 * SECDED codec.
 */
#include <array>
#include <iostream>

#include "common/table.h"
#include "core/guardband.h"
#include "ecc/analysis.h"

int main() {
  using namespace vrddram;

  // --- Step 1: how many cells still flip under a guardband? -----------
  core::GuardbandConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 6;
  config.trials = 4000;
  config.scan_rows_per_region = 64;
  std::cout << "hammering below measured min RDTs with safety margins"
            << " (" << config.trials << " trials per margin)...\n";
  const auto outcomes = core::RunGuardbandStudy(config, &std::cout);

  TextTable flips({"margin", "rows with flips", "worst unique flips",
                   "worst BER"});
  for (const std::uint32_t margin : core::kGuardbandMargins) {
    const auto hist = core::BitflipHistogramAtMargin(outcomes, margin);
    std::size_t rows_with_flips = 0;
    for (const auto& [count, rows] : hist) {
      if (count > 0) {
        rows_with_flips += rows;
      }
    }
    std::size_t worst = 0;
    if (!hist.empty()) {
      worst = hist.rbegin()->first;
    }
    flips.AddRow({Cell(margin) + "%",
                  Cell(static_cast<std::uint64_t>(rows_with_flips)),
                  Cell(static_cast<std::uint64_t>(worst)),
                  Cell(core::WorstBitErrorRate(outcomes, margin, 65536),
                       8)});
  }
  std::cout << '\n';
  flips.Print(std::cout);

  // --- Step 2: what would ECC make of the worst rate? -----------------
  const double ber = std::max(
      core::WorstBitErrorRate(outcomes, 10, 65536), 1e-6);
  std::cout << "\nanalytic per-codeword outcome at BER " << ber << ":\n";
  TextTable table({"code", "uncorrectable", "undetectable"});
  for (const ecc::CodeKind kind :
       {ecc::CodeKind::kSec, ecc::CodeKind::kSecded,
        ecc::CodeKind::kChipkill}) {
    const ecc::ErrorProbabilities p = ecc::AnalyzeCode(kind, ber);
    table.AddRow({ToString(kind), Cell(p.uncorrectable, 10),
                  Cell(p.undetectable, 10)});
  }
  table.Print(std::cout);

  // --- Step 3: decode every likely error pattern with the real codec --
  const ecc::EnumeratedCode secded =
      ecc::EnumerateCode(ecc::CodeKind::kSecded, ber);
  std::cout << "\nSECDED exact enumeration: "
            << secded.probabilities.uncorrectable
            << " uncorrectable rate over every <= "
            << secded.by_errors.size() - 1
            << "-bit error pattern (dropped tail " << secded.dropped_tail
            << ")\n";
  std::cout << "\nConclusion (§6.4): a >10% guardband plus SECDED or"
            << " Chipkill ECC could mask VRD-induced flips, at the"
            << " performance cost shown in mitigation_tuning.\n";
  return 0;
}
