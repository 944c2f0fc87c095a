#include "core/series_analysis.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "core/sorted_flips.h"

namespace vrddram::core {

SeriesAnalysis AnalyzeSeries(std::span<const std::int64_t> series,
                             std::size_t acf_max_lag) {
  SeriesAnalysis out;
  out.measurements = series.size();

  // Order-free statistics: one count of the flipping values, read as
  // runs of equal values.
  const SortedFlips flips = BuildSortedFlips(series);
  out.valid = flips.size;
  VRD_FATAL_IF(out.valid < kMinAnalyzedFlips,
               "series has " + std::to_string(out.valid) +
                   " flipping measurements; analysis needs at least " +
                   std::to_string(kMinAnalyzedFlips));
  out.min_rdt = flips.run_values.front();
  out.max_rdt = flips.run_values.back();
  out.max_over_min = static_cast<double>(out.max_rdt) /
                     static_cast<double>(out.min_rdt);
  out.min_multiplicity = flips.run_counts.front();
  out.unique_values = flips.run_values.size();

  // First appearance of the minimum, indexed over the *full* series
  // (a no-flip measurement still costs test time).
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i] == out.min_rdt) {
      out.first_min_index = i;
      break;
    }
  }

  // The closed-form moments a campaign record's runs give too, so the
  // single-row and campaign experiments share one CV.
  const FlipMoments moments = ComputeMoments(flips);
  out.mean = moments.mean;
  out.stddev = moments.stddev;
  out.cv = moments.cv;
  out.box = stats::ComputeBoxStats(
      flips.size,
      [&flips](std::size_t i) {
        return static_cast<double>(flips.AtRank(i));
      },
      out.mean);

  // The ordered statistics read the flipping measurements in order. The
  // integer copy is dropped before the ACF allocates its deviations.
  std::vector<double> values;
  {
    std::vector<std::int64_t> valid;
    valid.reserve(out.valid);
    for (const std::int64_t v : series) {
      if (v >= 0) {
        valid.push_back(v);
      }
    }
    out.run_lengths = stats::ComputeRunLengths(valid);
    values = stats::ToDoubles(valid);
  }
  out.immediate_change_fraction =
      out.run_lengths.ImmediateChangeFraction();

  const std::vector<double> run_values = stats::ToDoubles(flips.run_values);
  if (out.stddev > 0.0) {
    // §4.1 convention: bin by the unique-value histogram (the RDT data
    // is quantized to the sweep grid).
    out.normal_fit = stats::ChiSquareNormalTestBinned(
        run_values, flips.run_counts, out.mean, out.stddev);
  } else {
    out.normal_fit.p_value = 1.0;
    out.normal_fit.fitted_mean = out.mean;
  }

  const std::size_t max_lag =
      std::min(acf_max_lag, out.valid > 1 ? out.valid - 1 : 0);
  if (max_lag >= 1) {
    out.acf = stats::Autocorrelation(values, max_lag);
    out.acf_significant_fraction =
        stats::FractionSignificantLags(out.acf, out.valid);
  }

  out.histogram =
      stats::BuildUniqueValueHistogram(run_values, flips.run_counts);
  out.histogram_modes = stats::CountModes(out.histogram);
  return out;
}

}  // namespace vrddram::core
