#include "core/min_rdt.h"

#include <cmath>

#include "common/error.h"

namespace vrddram::core {

namespace {

// P(all N draws miss the `covered` smallest of the L entries).
double ProbAllAbove(std::size_t covered, std::size_t valid_count,
                    double sample_size) {
  const double p_miss = static_cast<double>(valid_count - covered) /
                        static_cast<double>(valid_count);
  return std::pow(p_miss, sample_size);
}

}  // namespace

RowMinRdtResult AnalyzeRowSeries(const SortedFlips& flips,
                                 const MinRdtSettings& settings) {
  VRD_FATAL_IF(flips.size == 0, "series has no flipping measurements");
  const std::int64_t series_min = flips.run_values.front();
  VRD_FATAL_IF(series_min <= 0, "RDT values must be positive");
  const std::size_t valid_count = flips.size;
  const std::size_t runs = flips.run_values.size();

  // Entries within each margin, decided in integers.
  std::vector<std::size_t> margin_covered;
  margin_covered.reserve(settings.margins.size());
  for (const std::uint32_t pct : settings.margins) {
    const std::int64_t limit = (100 + std::int64_t{pct}) * series_min;
    std::size_t covered = 0;
    for (std::size_t j = 0; j < runs && flips.run_values[j] * 100 <= limit;
         ++j) {
      covered += flips.run_counts[j];
    }
    margin_covered.push_back(covered);
  }

  RowMinRdtResult out;
  out.valid_count = valid_count;
  out.min_count = flips.run_counts.front();
  out.per_n.reserve(settings.sample_sizes.size());
  const double norm = static_cast<double>(series_min);
  for (const std::size_t n : settings.sample_sizes) {
    VRD_FATAL_IF(n == 0, "sample sizes must be positive");
    const auto draws = static_cast<double>(n);
    MinSampleResult& r = out.per_n.emplace_back();
    r.prob_find_min =
        1.0 - ProbAllAbove(out.min_count, valid_count, draws);

    // E[min of draw] = sum_j v_j * P(min == v_j), where P(min == v_j)
    // is the drop in the tail probability across run j: `covered`
    // entries are <= v_j. Once the tail underflows to zero every later
    // term is zero too.
    double expectation = 0.0;
    double prev_tail = 1.0;
    std::size_t covered = 0;
    for (std::size_t j = 0; j < runs && prev_tail > 0.0; ++j) {
      covered += flips.run_counts[j];
      const double tail = ProbAllAbove(covered, valid_count, draws);
      const double term =
          static_cast<double>(flips.run_values[j]) * (prev_tail - tail);
      expectation += term;
      prev_tail = tail;
    }
    r.expected_norm_min = expectation / norm;

    r.prob_within_margin.reserve(margin_covered.size());
    for (const std::size_t covered_in_margin : margin_covered) {
      r.prob_within_margin.push_back(
          1.0 - ProbAllAbove(covered_in_margin, valid_count, draws));
    }
  }
  return out;
}

bool SingleDrawFindMinAtMost(const RowMinRdtResult& row,
                             std::uint64_t permille) {
  return std::uint64_t{1000} * row.min_count <= permille * row.valid_count;
}

bool SingleDrawFindMinAtLeast(const RowMinRdtResult& row,
                              std::uint64_t permille) {
  return std::uint64_t{1000} * row.min_count >= permille * row.valid_count;
}

}  // namespace vrddram::core
