#include "core/csv_export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/error.h"

namespace vrddram::core {
namespace {

/// A stream whose buffer refuses every byte — the "disk full" /
/// closed-pipe case the writers must report instead of truncating.
class FailingStreambuf : public std::streambuf {
 protected:
  int overflow(int) override { return traits_type::eof(); }
};

CampaignResult TinyResult() {
  CampaignResult result;
  SeriesRecord record;
  record.device = "M1";
  record.mfr = vrd::Manufacturer::kMfrM;
  record.density_gbit = 16;
  record.die_rev = 'F';
  record.row = 42;
  record.pattern = dram::DataPattern::kCheckered0;
  record.t_on = TOnChoice::kMinTras;
  record.temperature = 50.0;
  record.rdt_guess = 5000;
  record.flips = BuildSortedFlips(std::vector<std::int64_t>{
      5000, 4950, -1, 5050, 5000, 4900, 5000, 5000, 4950, 5000});
  result.records.push_back(record);
  return result;
}

TEST(CsvExportTest, SummaryFormat) {
  std::ostringstream os;
  WriteSummaryCsv(os, TinyResult());
  const std::string csv = os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
  // Metadata and key analysis columns present.
  EXPECT_NE(csv.find("M1,Mfr. M,16,F,42,Checkered0,min-tRAS,50,5000,10,9"),
            std::string::npos);
  EXPECT_NE(csv.find(",4900,5050,"), std::string::npos);
}

TEST(CsvExportTest, ShardStatusColumnReflectsRetries) {
  CampaignResult result = TinyResult();
  ShardStatus status;
  status.device = "M1";
  status.temperature = 50.0;
  status.state = ShardState::kRetried;
  status.attempts = 2;
  result.shards.push_back(status);

  std::ostringstream summary_os;
  WriteSummaryCsv(summary_os, result);
  const std::string summary_csv = summary_os.str();
  EXPECT_NE(summary_csv.find("shard_status"), std::string::npos);
  EXPECT_NE(summary_csv.find(",retried-1"), std::string::npos);

  // Without a matching shard entry the column defaults to ok.
  result.shards.clear();
  std::ostringstream plain_os;
  WriteSummaryCsv(plain_os, result);
  EXPECT_NE(plain_os.str().find(",ok"), std::string::npos);
}

TEST(CsvExportTest, StreamFailureIsFatalNotSilent) {
  FailingStreambuf broken;
  std::ostream summary_os(&broken);
  EXPECT_THROW(WriteSummaryCsv(summary_os, TinyResult()), FatalError);
}

TEST(CsvExportTest, EmptyCampaignOnlyHeaders) {
  std::ostringstream os;
  WriteSummaryCsv(os, CampaignResult{});
  const std::string summary_csv = os.str();
  EXPECT_EQ(std::count(summary_csv.begin(), summary_csv.end(), '\n'),
            1);
}

}  // namespace
}  // namespace vrddram::core
