#include "core/min_rdt.h"

#include <algorithm>
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

RowMinRdtResult AnalyzeRowSeries(std::span<const std::int64_t> series,
                                 const MinRdtSettings& settings) {
  std::vector<std::int64_t> sorted;
  sorted.reserve(series.size());
  for (const std::int64_t v : series) {
    if (v >= 0) {
      sorted.push_back(v);
    }
  }
  VRD_FATAL_IF(sorted.empty(), "series has no flipping measurements");
  std::sort(sorted.begin(), sorted.end());
  const std::int64_t series_min = sorted.front();
  VRD_FATAL_IF(series_min <= 0, "RDT values must be positive");
  const std::size_t valid_count = sorted.size();

  // Runs of equal values: run_values[j] with run_covered[j] entries
  // <= it, so P(min of draw > run_values[j]) = ProbAllAbove(covered).
  std::vector<double> run_values;
  std::vector<std::size_t> run_covered;
  for (std::size_t i = 0; i < valid_count;) {
    std::size_t j = i;
    while (j < valid_count && sorted[j] == sorted[i]) {
      ++j;
    }
    run_values.push_back(static_cast<double>(sorted[i]));
    run_covered.push_back(j);
    i = j;
  }

  // Entries within each margin, decided in integers.
  std::vector<std::size_t> margin_covered;
  margin_covered.reserve(settings.margins.size());
  for (const std::uint32_t pct : settings.margins) {
    const std::int64_t limit = (100 + std::int64_t{pct}) * series_min;
    const auto end = std::partition_point(
        sorted.begin(), sorted.end(),
        [limit](std::int64_t v) { return v * 100 <= limit; });
    margin_covered.push_back(
        static_cast<std::size_t>(end - sorted.begin()));
  }

  RowMinRdtResult out;
  out.valid_count = valid_count;
  out.min_count = run_covered.front();
  out.per_n.reserve(settings.sample_sizes.size());
  const double norm = static_cast<double>(series_min);
  for (const std::size_t n : settings.sample_sizes) {
    VRD_FATAL_IF(n == 0, "sample sizes must be positive");
    const auto draws = static_cast<double>(n);
    MinSampleResult& r = out.per_n.emplace_back();
    r.prob_find_min =
        1.0 - ProbAllAbove(out.min_count, valid_count, draws);

    // E[min of draw] = sum_j v_j * P(min == v_j), where P(min == v_j)
    // is the drop in the tail probability across run j. Once the tail
    // underflows to zero every later term is zero too.
    double expectation = 0.0;
    double prev_tail = 1.0;
    for (std::size_t j = 0; j < run_values.size() && prev_tail > 0.0;
         ++j) {
      const double tail = ProbAllAbove(run_covered[j], valid_count, draws);
      const double term = run_values[j] * (prev_tail - tail);
      expectation += term;
      prev_tail = tail;
    }
    r.expected_norm_min = expectation / norm;

    r.prob_within_margin.reserve(margin_covered.size());
    for (const std::size_t covered : margin_covered) {
      r.prob_within_margin.push_back(
          1.0 - ProbAllAbove(covered, valid_count, draws));
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
