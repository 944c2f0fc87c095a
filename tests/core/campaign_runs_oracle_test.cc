/**
 * A campaign record keeps each series as its sorted runs, not in
 * measurement order. This test re-measures the raw series of a fixed
 * small campaign by replaying its shards step by step, checks that
 * every record's runs are exactly those of its raw series, and checks
 * that fig08's per-row analysis read from the runs matches the
 * raw-series computation (filter the no-flips, sort, walk the distinct
 * values) bit for bit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/campaign.h"
#include "core/min_rdt.h"
#include "core/rdt_profiler.h"
#include "vrd/chip_catalog.h"

namespace vrddram::core {
namespace {

CampaignConfig OracleConfig() {
  CampaignConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 3;
  config.measurements = 150;
  config.patterns = {dram::DataPattern::kCheckered0,
                     dram::DataPattern::kRowstripe1};
  config.temperatures = {50.0, 80.0};
  config.scan_rows_per_region = 48;
  config.threads = 1;
  return config;
}

/// The raw series of every record of `config`, in record order: each
/// (device, temperature) shard replayed as the campaign runs it.
std::vector<std::vector<std::int64_t>> RawSeries(
    const CampaignConfig& config) {
  std::vector<std::vector<std::int64_t>> out;
  for (const std::string& name : config.devices) {
    for (const Celsius temperature : config.temperatures) {
      std::unique_ptr<dram::Device> device =
          vrd::BuildDevice(name, config.base_seed);
      auto* engine =
          dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
      if (device->config().has_on_die_ecc) {
        device->SetOnDieEccEnabled(false);
      }
      const std::vector<dram::RowAddr> rows = SelectVulnerableRows(
          *device, *engine, 0, config.rows_per_device / 3,
          config.scan_rows_per_region, dram::DataPattern::kCheckered0,
          device->timing().tRAS);
      device->SetTemperature(temperature);
      device->Sleep(30 * units::kSecond);
      for (const TOnChoice t_on : config.t_ons) {
        for (const dram::DataPattern pattern : config.patterns) {
          ProfilerConfig pc;
          pc.pattern = pattern;
          pc.t_on = ResolveTOn(t_on, device->timing());
          RdtProfiler profiler(*device, pc);
          for (const dram::RowAddr row : rows) {
            const std::optional<std::uint64_t> guess =
                profiler.GuessRdt(row);
            if (guess) {
              out.push_back(
                  profiler.MeasureSeries(row, *guess, config.measurements));
            }
          }
        }
      }
    }
  }
  return out;
}

/// The minimum-RDT statistics of a raw series, straight from its sorted
/// flipping measurements.
RowMinRdtResult RawRowSeries(std::vector<std::int64_t> series,
                             const MinRdtSettings& settings) {
  std::erase_if(series, [](std::int64_t v) { return v < 0; });
  std::sort(series.begin(), series.end());
  const std::size_t valid = series.size();
  const std::int64_t min = series.front();
  const auto tail = [valid](std::size_t covered, double n) {
    return std::pow(static_cast<double>(valid - covered) /
                        static_cast<double>(valid),
                    n);
  };
  RowMinRdtResult out;
  out.valid_count = valid;
  out.min_count = static_cast<std::size_t>(
      std::count(series.begin(), series.end(), min));
  for (const std::size_t n : settings.sample_sizes) {
    const auto draws = static_cast<double>(n);
    MinSampleResult& r = out.per_n.emplace_back();
    r.prob_find_min = 1.0 - tail(out.min_count, draws);
    double expectation = 0.0;
    double prev_tail = 1.0;
    for (std::size_t i = 0; i < valid && prev_tail > 0.0;) {
      std::size_t j = i;
      while (j < valid && series[j] == series[i]) {
        ++j;
      }
      const double t = tail(j, draws);
      const double term = static_cast<double>(series[i]) * (prev_tail - t);
      expectation += term;
      prev_tail = t;
      i = j;
    }
    r.expected_norm_min = expectation / static_cast<double>(min);
    for (const std::uint32_t pct : settings.margins) {
      const auto within = static_cast<std::size_t>(std::count_if(
          series.begin(), series.end(), [&](std::int64_t v) {
            return v * 100 <= (100 + std::int64_t{pct}) * min;
          }));
      r.prob_within_margin.push_back(1.0 - tail(within, draws));
    }
  }
  return out;
}

TEST(CampaignRunsOracleTest, Fig08RowResultsMatchTheRawSeriesBitForBit) {
  const CampaignConfig config = OracleConfig();
  const CampaignResult result = RunCampaign(config);
  const std::vector<std::vector<std::int64_t>> raw = RawSeries(config);
  ASSERT_EQ(result.records.size(), raw.size());
  ASSERT_GE(raw.size(), 16u);

  const MinRdtSettings settings;  // fig08's
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const SeriesRecord& record = result.records[i];
    ASSERT_EQ(record.flips, BuildSortedFlips(raw[i])) << "record " << i;
    EXPECT_EQ(record.flips.measurements(), config.measurements);

    const RowMinRdtResult got = AnalyzeRowSeries(record.flips, settings);
    const RowMinRdtResult want = RawRowSeries(raw[i], settings);
    EXPECT_EQ(got.valid_count, want.valid_count) << "record " << i;
    EXPECT_EQ(got.min_count, want.min_count) << "record " << i;
    ASSERT_EQ(got.per_n.size(), want.per_n.size());
    for (std::size_t n = 0; n < got.per_n.size(); ++n) {
      EXPECT_EQ(got.per_n[n].prob_find_min, want.per_n[n].prob_find_min)
          << "record " << i << " N index " << n;
      EXPECT_EQ(got.per_n[n].expected_norm_min,
                want.per_n[n].expected_norm_min)
          << "record " << i << " N index " << n;
      EXPECT_EQ(got.per_n[n].prob_within_margin,
                want.per_n[n].prob_within_margin)
          << "record " << i << " N index " << n;
    }
  }
}

}  // namespace
}  // namespace vrddram::core
