/**
 * @file
 * The §6.4 pipeline as an application: run the guardband bitflip study
 * on a couple of modules, convert the worst observed unique-bitflip
 * count into a bit error rate, and evaluate what SEC, SECDED, and
 * Chipkill-like SSC ECC would make of it - including a fault-injection
 * cross-check against the real codecs.
 */
#include <array>
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "core/guardband.h"
#include "ecc/analysis.h"
#include "ecc/chipkill.h"
#include "ecc/hamming.h"

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

  // --- Step 3: fault-inject the real codecs at that rate --------------
  const ecc::Hamming72 hamming;
  Rng rng(99);
  const std::uint64_t data = 0xA5A5'5A5A'0FF0'F00Full;
  const ecc::Codeword72 clean = hamming.Encode(data);
  const int trials = 500000;
  int uncorrected = 0;
  for (int t = 0; t < trials; ++t) {
    ecc::Codeword72 word = clean;
    for (std::size_t bit = 0; bit < 72; ++bit) {
      if (rng.NextBernoulli(ber)) {
        word.FlipBit(bit);
      }
    }
    const ecc::DecodeResult result = hamming.Decode(word);
    if (result.status == ecc::DecodeStatus::kDetected ||
        result.data != data) {
      ++uncorrected;
    }
  }
  std::cout << "\nSECDED fault injection: "
            << static_cast<double>(uncorrected) / trials
            << " uncorrectable rate over " << trials << " codewords\n";
  std::cout << "\nConclusion (§6.4): a >10% guardband plus SECDED or"
            << " Chipkill ECC could mask VRD-induced flips, at the"
            << " performance cost shown in mitigation_tuning.\n";
  return 0;
}
