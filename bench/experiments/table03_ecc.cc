/**
 * @file
 * Table 3 / §6.4: probability of uncorrectable, undetectable, and
 * detectable-but-uncorrectable errors for SEC, SECDED, and
 * Chipkill-like SSC codes at the worst empirically observed bit error
 * rate (7.6e-5, from 5 unique bitflips in a 64 Kibit row at a 10% RDT
 * guardband). The analytic model is cross-checked against the real
 * codecs exactly: every error pattern of up to 4 bits of the 72-bit
 * SEC/SECDED word and up to 3 bits of the 144-bit SSC word is decoded
 * (ecc::EnumerateCode), and the mass of the heavier patterns is printed
 * as a bound.
 */
#include <array>
#include <iostream>

#include "common/experiment.h"
#include "ecc/analysis.h"

namespace vrddram::bench {
namespace {

using namespace vrddram::ecc;

std::string Prob(double p) {
  if (p < 0.0) {
    return "N/A";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2e", p);
  return buffer;
}

/// One Table 3 layout: the three rows of `codes` (SEC, SECDED, SSC).
void PrintTable(std::ostream& out,
                const std::array<ErrorProbabilities, 3>& codes) {
  TextTable table({"Type of error", "SEC", "SECDED",
                   "Chipkill-like (SSC)"});
  const auto add_row = [&](const std::string& label,
                           double ErrorProbabilities::*field) {
    table.AddRow({label, Prob(codes[0].*field), Prob(codes[1].*field),
                  Prob(codes[2].*field)});
  };
  add_row("Uncorrectable", &ErrorProbabilities::uncorrectable);
  add_row("Undetectable", &ErrorProbabilities::undetectable);
  add_row("Detectable uncorrectable",
          &ErrorProbabilities::detectable_uncorrectable);
  table.Print(out);
}

void AnalyzeTable03(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const double ber = flags.GetDouble("ber");

  PrintBanner(out, "Table 3: error probabilities at BER " + Prob(ber));
  const ErrorProbabilities sec = AnalyzeCode(CodeKind::kSec, ber);
  const ErrorProbabilities secded = AnalyzeCode(CodeKind::kSecded, ber);
  const ErrorProbabilities ssc = AnalyzeCode(CodeKind::kChipkill, ber);
  PrintTable(out, {sec, secded, ssc});

  PrintBanner(out, "Paper values");
  PrintCheck(out, "table03.sec_uncorrectable", "1.48e-05",
             Prob(sec.uncorrectable));
  PrintCheck(out, "table03.secded_undetectable", "2.64e-08",
             Prob(secded.undetectable));
  PrintCheck(out, "table03.ssc_uncorrectable", "5.66e-05",
             Prob(ssc.uncorrectable));

  PrintBanner(out, "Exact cross-check (real codecs)");
  const EnumeratedCode exact_sec = EnumerateCode(CodeKind::kSec, ber);
  const EnumeratedCode exact_secded = EnumerateCode(CodeKind::kSecded, ber);
  const EnumeratedCode exact_ssc = EnumerateCode(CodeKind::kChipkill, ber);
  PrintTable(out, {exact_sec.probabilities, exact_secded.probabilities,
                   exact_ssc.probabilities});
  // Each value is low by at most its code's dropped tail.
  for (const EnumeratedCode* code : {&exact_secded, &exact_ssc}) {
    out << "dropped tail, " << code->bits << "-bit word, >= "
        << code->by_errors.size() << " error bits: "
        << Prob(code->dropped_tail) << "\n";
  }
  PrintCheck(out, "table03.mc_secded_uncorrectable",
             Prob(secded.uncorrectable),
             Prob(exact_secded.probabilities.uncorrectable));
  PrintCheck(out, "table03.mc_ssc_uncorrectable", Prob(ssc.uncorrectable),
             Prob(exact_ssc.probabilities.uncorrectable));
}

ExperimentSpec Table03Spec() {
  ExperimentSpec spec;
  spec.name = "table03_ecc";
  spec.description =
      "Table 3: ECC error probabilities at the worst observed BER";
  spec.flags = {
      {"ber", "7.62939453125e-05", "bit error rate under analysis"},
  };
  spec.analyze = AnalyzeTable03;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Table03Spec);

}  // namespace
}  // namespace vrddram::bench
