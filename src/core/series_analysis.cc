#include "core/series_analysis.h"

#include <algorithm>

#include "common/error.h"

namespace vrddram::core {

SeriesAnalysis AnalyzeSeries(std::span<const std::int64_t> series,
                             std::size_t acf_max_lag,
                             std::size_t min_valid) {
  SeriesAnalysis out;
  out.measurements = series.size();

  std::vector<std::int64_t> valid;
  valid.reserve(series.size());
  for (const std::int64_t v : series) {
    if (v >= 0) {
      valid.push_back(v);
    }
  }
  out.valid = valid.size();
  VRD_FATAL_IF(out.valid < min_valid,
               "series has too few flipping measurements to analyze");

  out.min_rdt = *std::min_element(valid.begin(), valid.end());
  out.max_rdt = *std::max_element(valid.begin(), valid.end());
  out.max_over_min = static_cast<double>(out.max_rdt) /
                     static_cast<double>(out.min_rdt);

  // First appearance of the minimum, indexed over the *full* series
  // (a no-flip measurement still costs test time).
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i] == out.min_rdt) {
      out.first_min_index = i;
      break;
    }
  }
  out.min_multiplicity = static_cast<std::size_t>(
      std::count(valid.begin(), valid.end(), out.min_rdt));

  out.unique_values = stats::CountUnique(valid);

  const std::vector<double> values = stats::ToDoubles(valid);
  out.mean = stats::Mean(values);
  out.stddev = stats::SampleStddev(values);
  out.cv = (out.mean != 0.0) ? out.stddev / out.mean : 0.0;
  out.box = stats::ComputeBoxStats(values);

  out.run_lengths = stats::ComputeRunLengths(valid);
  out.immediate_change_fraction =
      out.run_lengths.ImmediateChangeFraction();

  if (out.stddev > 0.0) {
    // §4.1 convention: bin by the unique-value histogram (the RDT data
    // is quantized to the sweep grid).
    out.normal_fit = stats::ChiSquareNormalTestBinned(values);
  } else {
    out.normal_fit.p_value = 1.0;
    out.normal_fit.fitted_mean = out.mean;
  }

  const std::size_t max_lag =
      std::min(acf_max_lag, valid.size() > 1 ? valid.size() - 1 : 0);
  if (max_lag >= 1) {
    out.acf = stats::Autocorrelation(values, max_lag);
    out.acf_significant_fraction =
        stats::FractionSignificantLags(out.acf, valid.size());
  }

  out.histogram = stats::BuildUniqueValueHistogram(values);
  out.histogram_modes = stats::CountModes(out.histogram);
  return out;
}

}  // namespace vrddram::core
