/**
 * @file
 * The paper's 17 findings, asserted qualitatively against the
 * simulated chip population. One shared small-scale campaign feeds the
 * distributional findings; the single-series findings run Alg. 1
 * directly. Everything is deterministic at the fixed seed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/campaign.h"
#include "core/min_rdt.h"
#include "core/rdt_profiler.h"
#include "core/series_analysis.h"
#include "vrd/chip_catalog.h"

namespace vrddram {
namespace {

/// Shared multi-parameter campaign: 3 devices x 6 rows x 2 patterns x
/// 2 tAggOn x 2 temperatures x 300 measurements.
class FindingsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::CampaignConfig config;
    config.devices = {"H1", "M1", "S2"};
    config.rows_per_device = 6;
    config.measurements = 300;
    config.patterns = {dram::DataPattern::kCheckered0,
                       dram::DataPattern::kRowstripe1};
    config.t_ons = {core::TOnChoice::kMinTras, core::TOnChoice::kTrefi};
    config.temperatures = {50.0, 80.0};
    config.scan_rows_per_region = 48;
    config.base_seed = 2025;
    campaign_ = new core::CampaignResult(core::RunCampaign(config));

    // One long single-row series (Alg. 1 foundational setup).
    auto device = vrd::BuildDevice("H1", 2025);
    device->SetTemperature(80.0);
    core::ProfilerConfig pc;
    core::RdtProfiler profiler(*device, pc);
    const auto victim = profiler.FindVictim(1, 8192);
    ASSERT_TRUE(victim.has_value());
    series_ = new std::vector<std::int64_t>(
        profiler.MeasureSeries(victim->row, victim->rdt_guess, 20000));
  }

  static void TearDownTestSuite() {
    delete campaign_;
    delete series_;
    campaign_ = nullptr;
    series_ = nullptr;
  }

  static const core::CampaignResult& campaign() { return *campaign_; }
  static const std::vector<std::int64_t>& series() { return *series_; }

  /// Median across rows of the expected normalized min at N = 1 for
  /// records matching `predicate`.
  template <typename Predicate>
  static double MedianNormMinN1(Predicate predicate) {
    core::MinRdtSettings settings;
    settings.sample_sizes = {1};
    std::vector<double> values;
    for (const core::SeriesRecord& record : campaign().records) {
      if (!predicate(record)) {
        continue;
      }
      values.push_back(core::AnalyzeRowSeries(record.flips, settings)
                           .per_n[0]
                           .expected_norm_min);
    }
    EXPECT_FALSE(values.empty());
    return stats::Median(values);
  }

  static core::CampaignResult* campaign_;
  static std::vector<std::int64_t>* series_;
};

core::CampaignResult* FindingsTest::campaign_ = nullptr;
std::vector<std::int64_t>* FindingsTest::series_ = nullptr;

TEST_F(FindingsTest, Finding01RdtChangesOverTime) {
  const core::SeriesAnalysis a = core::AnalyzeSeries(series());
  EXPECT_GT(a.unique_values, 1u);
  EXPECT_GT(a.max_over_min, 1.0);
}

TEST_F(FindingsTest, Finding02RdtHasMultipleStates) {
  const core::SeriesAnalysis a = core::AnalyzeSeries(series());
  EXPECT_GE(a.unique_values, 5u);
  // Values accumulate around a mean: the modal bin is interior-heavy.
  EXPECT_GT(a.mean, static_cast<double>(a.min_rdt));
  EXPECT_LT(a.mean, static_cast<double>(a.max_rdt));
}

TEST_F(FindingsTest, Finding03RdtChangesFrequently) {
  const core::SeriesAnalysis a = core::AnalyzeSeries(series());
  EXPECT_GT(a.immediate_change_fraction, 0.5);
  // Longer runs are rarer than immediate changes.
  const auto& counts = a.run_lengths.counts;
  ASSERT_TRUE(counts.contains(1));
  for (const auto& [length, count] : counts) {
    if (length >= 4) {
      EXPECT_LT(count, counts.at(1));
    }
  }
}

TEST_F(FindingsTest, Finding04ChangesAreUnpredictable) {
  const core::SeriesAnalysis a = core::AnalyzeSeries(series());
  // The ACF stays close to a white-noise band: no repeating patterns.
  EXPECT_LT(a.acf_significant_fraction, 0.35);
}

TEST_F(FindingsTest, Finding05AllRowsExhibitVariation) {
  std::map<std::pair<std::string, dram::RowAddr>, double> max_cv;
  for (const core::SeriesRecord& record : campaign().records) {
    auto& slot = max_cv[{record.device, record.row}];
    slot = std::max(slot, core::ComputeMoments(record.flips).cv);
  }
  for (const auto& [key, cv] : max_cv) {
    EXPECT_GT(cv, 0.0) << key.first << " row " << key.second;
  }
}

TEST_F(FindingsTest, Finding06MostRowsVaryUnderAllCombos) {
  std::map<std::pair<std::string, dram::RowAddr>, bool> varies_all;
  for (const core::SeriesRecord& record : campaign().records) {
    auto [it, inserted] =
        varies_all.try_emplace({record.device, record.row}, true);
    it->second = it->second && (record.flips.run_values.size() > 1);
  }
  std::size_t all = 0;
  for (const auto& [key, varies] : varies_all) {
    all += varies ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(all) /
                static_cast<double>(varies_all.size()),
            0.9);
}

TEST_F(FindingsTest, Finding07MinUnlikelyWithOneMeasurement) {
  core::MinRdtSettings settings;
  settings.sample_sizes = {1};
  std::vector<double> probs;
  for (const core::SeriesRecord& record : campaign().records) {
    probs.push_back(
        core::AnalyzeRowSeries(record.flips, settings)
            .per_n[0]
            .prob_find_min);
  }
  EXPECT_LT(stats::Median(probs), 0.25);
}

TEST_F(FindingsTest, Finding08SingleMeasurementOverestimatesMin) {
  const double median = MedianNormMinN1(
      [](const core::SeriesRecord&) { return true; });
  EXPECT_GT(median, 1.0);
}

TEST_F(FindingsTest, Finding09ProbabilityGrowsWithN) {
  core::MinRdtSettings settings;
  settings.sample_sizes = {1, 10, 100};
  double p1 = 0.0;
  double p10 = 0.0;
  double p100 = 0.0;
  for (const core::SeriesRecord& record : campaign().records) {
    const auto mc =
        core::AnalyzeRowSeries(record.flips, settings);
    p1 += mc.per_n[0].prob_find_min;
    p10 += mc.per_n[1].prob_find_min;
    p100 += mc.per_n[2].prob_find_min;
  }
  EXPECT_LT(p1, p10);
  EXPECT_LT(p10, p100);
}

TEST_F(FindingsTest, Finding10ProfileVariesAcrossChips) {
  std::set<int> medians;
  for (const char* device : {"H1", "M1", "S2"}) {
    const double median = MedianNormMinN1(
        [device](const core::SeriesRecord& record) {
          return record.device == device;
        });
    medians.insert(static_cast<int>(median * 1000.0));
  }
  EXPECT_GT(medians.size(), 1u);
}

TEST_F(FindingsTest, Finding11VrdWorsensWithTechnology) {
  // Separate quick campaign: Mfr. M's 16Gb-E (M0) vs 16Gb-F (M1).
  core::CampaignConfig config;
  config.devices = {"M0", "M1"};
  config.rows_per_device = 6;
  config.measurements = 300;
  config.scan_rows_per_region = 48;
  config.base_seed = 2025;
  const core::CampaignResult result = core::RunCampaign(config);

  core::MinRdtSettings settings;
  settings.sample_sizes = {1};
  std::map<std::string, std::vector<double>> norm;
  for (const core::SeriesRecord& record : result.records) {
    norm[record.device].push_back(
        core::AnalyzeRowSeries(record.flips, settings)
            .per_n[0]
            .expected_norm_min);
  }
  EXPECT_LT(stats::Median(norm["M0"]), stats::Median(norm["M1"]));
}

TEST_F(FindingsTest, Finding12ProfileChangesWithDataPattern) {
  const double checkered = MedianNormMinN1(
      [](const core::SeriesRecord& r) {
        return r.pattern == dram::DataPattern::kCheckered0;
      });
  const double rowstripe = MedianNormMinN1(
      [](const core::SeriesRecord& r) {
        return r.pattern == dram::DataPattern::kRowstripe1;
      });
  EXPECT_NE(checkered, rowstripe);
}

TEST_F(FindingsTest, Finding13NoSingleWorstPattern) {
  // Separate campaign over all four data patterns and six devices
  // across the three manufacturers: the pattern with the worst median
  // profile must differ across chips (per-cell coupling jitter makes
  // the worst pattern a property of the individual device, not of the
  // suite).
  core::CampaignConfig config;
  config.devices = {"H1", "H3", "M0", "M1", "S2", "S5"};
  config.rows_per_device = 6;
  config.measurements = 300;
  config.patterns.assign(dram::kAllDataPatterns,
                         dram::kAllDataPatterns + 4);
  config.scan_rows_per_region = 48;
  config.base_seed = 2025;
  const core::CampaignResult result = core::RunCampaign(config);

  std::set<int> worst;
  for (const std::string& device : config.devices) {
    int worst_pattern = -1;
    double worst_median = 0.0;
    for (const dram::DataPattern pattern : config.patterns) {
      core::MinRdtSettings settings;
      settings.sample_sizes = {1};
      std::vector<double> values;
      for (const core::SeriesRecord& record : result.records) {
        if (record.device != device || record.pattern != pattern) {
          continue;
        }
        values.push_back(
            core::AnalyzeRowSeries(record.flips, settings)
                .per_n[0]
                .expected_norm_min);
      }
      ASSERT_FALSE(values.empty());
      const double median = stats::Median(values);
      if (median > worst_median) {
        worst_median = median;
        worst_pattern = static_cast<int>(pattern);
      }
    }
    worst.insert(worst_pattern);
  }
  EXPECT_GT(worst.size(), 1u)
      << "the worst pattern must differ across chips";
}

TEST_F(FindingsTest, Finding14And15ProfileChangesWithTAggOn) {
  const double tras = MedianNormMinN1(
      [](const core::SeriesRecord& r) {
        return r.t_on == core::TOnChoice::kMinTras;
      });
  const double trefi = MedianNormMinN1(
      [](const core::SeriesRecord& r) {
        return r.t_on == core::TOnChoice::kTrefi;
      });
  EXPECT_NE(tras, trefi);
}

TEST_F(FindingsTest, Finding16ProfileChangesWithTemperature) {
  const double cold = MedianNormMinN1(
      [](const core::SeriesRecord& r) { return r.temperature < 60.0; });
  const double hot = MedianNormMinN1(
      [](const core::SeriesRecord& r) { return r.temperature > 60.0; });
  EXPECT_NE(cold, hot);
}

TEST_F(FindingsTest, Finding17TrueAndAntiCellsBehaveAlike) {
  // Group the campaign's rows by their encoding: the CV distributions
  // of the two classes overlap (medians within a small factor).
  auto device = vrd::BuildDevice("M1", 2025);
  std::map<bool, std::vector<double>> cv_by_class;
  for (const core::SeriesRecord& record : campaign().records) {
    if (record.device != "M1") {
      continue;
    }
    const auto phys = device->mapper().ToPhysical(record.row);
    const bool anti = device->encoding().RowEncoding(phys) ==
                      dram::CellEncoding::kAntiCell;
    cv_by_class[anti].push_back(
        core::ComputeMoments(record.flips).cv);
  }
  if (cv_by_class[true].empty() || cv_by_class[false].empty()) {
    GTEST_SKIP() << "sampled rows are all one encoding class";
  }
  const double ratio = stats::Median(cv_by_class[true]) /
                       stats::Median(cv_by_class[false]);
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 5.0);
}

}  // namespace
}  // namespace vrddram
