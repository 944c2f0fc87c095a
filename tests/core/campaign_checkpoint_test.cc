/**
 * Checkpoint/cache format version 2: records as runs, a payload
 * checksum verified before use, and every count bounded before it is
 * used — plus a seeded mutation test over the reader (truncations, byte
 * flips, huge numbers): each input parses to the same checkpoint or
 * raises a FatalError.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/campaign.h"
#include "core/campaign_cache.h"
#include "core/campaign_checkpoint.h"
#include "core/checkpoint_text.h"

namespace vrddram::core {
namespace {

CampaignConfig TinyConfig() {
  CampaignConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 3;
  config.measurements = 15;
  config.scan_rows_per_region = 32;
  config.threads = 1;
  return config;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("vrddram_ckpt_" + name))
      .string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::trunc | std::ios::binary) << text;
}

std::string ToText(const CampaignCheckpoint& checkpoint) {
  std::ostringstream os;
  WriteCheckpoint(os, checkpoint);
  return os.str();
}

/// The FatalError message of `read`, or "" if it did not throw.
template <typename Read>
std::string FatalMessage(Read read) {
  try {
    read();
  } catch (const FatalError& error) {
    return error.what();
  }
  return "";
}

/// Move one measurement from the first run of some record to its second
/// run: every count still sums to the measurement total, so only the
/// checksum can tell the entry was edited.
std::string MoveOneRunCount(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  bool after_record = false;
  bool edited = false;
  while (std::getline(in, line)) {
    if (after_record && !edited) {
      std::istringstream runs(line);
      std::int64_t v0 = 0;
      std::int64_t v1 = 0;
      std::size_t c0 = 0;
      std::size_t c1 = 0;
      if (runs >> v0 >> c0 >> v1 >> c1 && c0 >= 2) {
        std::string rest;
        std::getline(runs, rest);
        line = std::to_string(v0) + ' ' + std::to_string(c0 - 1) + ' ' +
               std::to_string(v1) + ' ' + std::to_string(c1 + 1) + rest;
        edited = true;
      }
    }
    after_record = line.rfind("record ", 0) == 0;
    out += line + '\n';
  }
  EXPECT_TRUE(edited) << "no record with two runs to edit";
  return out;
}

TEST(CampaignCheckpointTest, RoundTripPreservesRunsAndNoFlips) {
  CampaignCheckpoint checkpoint;
  checkpoint.config_hash = 0x0123456789abcdefull;
  CampaignCheckpoint::ShardEntry entry;
  entry.status.device = "S2";
  entry.status.error = "";
  SeriesRecord record;
  record.device = "S2";
  record.flips = BuildSortedFlips(std::vector<std::int64_t>{
      300, kNoFlip, 100, 300, 200, 100, kNoFlip, 300});
  entry.records.push_back(record);
  record.flips = BuildSortedFlips(std::vector<std::int64_t>(4, kNoFlip));
  entry.records.push_back(record);
  checkpoint.shards.push_back(entry);
  // A campaign's real records too.
  CampaignCheckpoint::ShardEntry real;
  real.index = 1;
  real.status.device = "M1";
  real.records = RunCampaign(TinyConfig()).records;
  ASSERT_FALSE(real.records.empty());
  checkpoint.shards.push_back(real);

  std::stringstream buffer(ToText(checkpoint));
  const CampaignCheckpoint loaded = ReadCheckpoint(buffer);
  ASSERT_EQ(loaded.shards.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const auto& want = checkpoint.shards[s].records;
    const auto& got = loaded.shards[s].records;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].flips, want[r].flips) << s << '/' << r;
    }
  }
  const SortedFlips& flips = loaded.shards[0].records[0].flips;
  EXPECT_EQ(flips.run_values, (std::vector<std::int64_t>{100, 200, 300}));
  EXPECT_EQ(flips.run_counts, (std::vector<std::size_t>{2, 1, 3}));
  EXPECT_EQ(flips.no_flips, 2u);
  EXPECT_EQ(loaded.shards[0].records[1].flips.no_flips, 4u);
  EXPECT_EQ(loaded.shards[0].records[1].flips.size, 0u);
  // Writing is deterministic: the loaded checkpoint writes the same
  // bytes.
  EXPECT_EQ(ToText(loaded), buffer.str());
}

TEST(CampaignCheckpointTest, EditedRunCountFailsTheChecksum) {
  CampaignCheckpoint checkpoint;
  CampaignCheckpoint::ShardEntry entry;
  entry.status.device = "M1";
  entry.records = RunCampaign(TinyConfig()).records;
  checkpoint.shards.push_back(entry);
  std::stringstream edited(MoveOneRunCount(ToText(checkpoint)));
  try {
    ReadCheckpoint(edited);
    FAIL() << "an edited run count was accepted";
  } catch (const CheckpointChecksumError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(CampaignCheckpointTest, CacheReExecutesAnEntryWithAnEditedRunCount) {
  const std::string dir = TempPath("cache_edit");
  std::filesystem::remove_all(dir);
  const CampaignConfig config = TinyConfig();
  const CampaignResult fresh = RunCampaign(config);
  CampaignCache writer(dir);
  ASSERT_TRUE(writer.Store(config, fresh));
  const std::string path = writer.EntryPath(config);
  const std::string original = ReadFile(path);
  WriteFile(path, MoveOneRunCount(original));

  CampaignCache cache(dir);
  std::ostringstream telemetry;
  const CampaignResult result =
      RunCampaignCached(config, &cache, &telemetry);
  const std::string log = telemetry.str();
  EXPECT_NE(log.find("campaign-cache: warning: checkpoint '" + path + "'"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("campaign-cache: miss"), std::string::npos) << log;
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  ASSERT_EQ(result.records.size(), fresh.records.size());
  for (std::size_t i = 0; i < fresh.records.size(); ++i) {
    EXPECT_EQ(result.records[i].flips, fresh.records[i].flips) << i;
  }
  // The store overwrote the damaged entry with the original bytes.
  EXPECT_EQ(ReadFile(path), original);
  std::filesystem::remove_all(dir);
}

TEST(CampaignCheckpointTest, ResumeRejectsAnEditedRunCountNamingTheFile) {
  const std::string path = TempPath("resume_edit.ckpt");
  std::filesystem::remove(path);
  CampaignConfig config = TinyConfig();
  config.checkpoint_path = path;
  RunCampaign(config);
  WriteFile(path, MoveOneRunCount(ReadFile(path)));

  config.resume = true;
  const std::string message = FatalMessage([&] { RunCampaign(config); });
  EXPECT_NE(message.find("checkpoint '" + path + "'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("checksum"), std::string::npos) << message;
  std::filesystem::remove(path);
}

TEST(CampaignCheckpointTest, ResumeRejectsAVersionOneFileNamingTheFile) {
  const std::string path = TempPath("version_one.ckpt");
  CampaignConfig config = TinyConfig();
  config.checkpoint_path = path;
  config.resume = true;
  // A version-1 checkpoint: raw series and no checksum line.
  WriteFile(path,
            "vrddram-campaign-checkpoint 1\nconfig 0000000000000000\n"
            "shards 1\nshard 0 M1 4049000000000000 0 1 0\nerror \n"
            "records 1\nrecord M1 1 0 8 66 77 3 0 4049000000000000 42000 "
            "3\n41000 -1 43000\nend\n");
  const std::string message = FatalMessage([&] { RunCampaign(config); });
  EXPECT_NE(message.find("checkpoint '" + path + "'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("format version 1 does not match expected 2"),
            std::string::npos)
      << message;
  std::filesystem::remove(path);
}

/// One shard holding one record whose line ends in `counts` (the
/// measurement, no-flip and run counts) and whose runs are `runs`.
std::string OneRecordPayload(const std::string& records,
                             const std::string& counts,
                             const std::string& runs) {
  return "config 0000000000000000\nshards 1\nshard 0 M1 "
         "4049000000000000 0 1 0\nerror \nrecords " +
         records + "\nrecord M1 1 0 8 66 77 3 0 4049000000000000 42000 " +
         counts + "\n" + runs + "\nend\n";
}

TEST(CampaignCheckpointTest, BadCountsRaiseFatalErrorsNotCrashes) {
  std::stringstream intact(
      SealCheckpoint(OneRecordPayload("1", "5 1 2", "41000 3 43000 1")));
  EXPECT_NO_THROW(ReadCheckpoint(intact));
  const struct {
    std::string payload;
    const char* error;
  } cases[] = {
      // Counts far beyond what the file holds: these used to reach
      // vector::reserve and abort the process.
      {OneRecordPayload("18446744073709551615", "5 1 2", "41000 3 43000 1"),
       "record count 18446744073709551615 exceeds"},
      {OneRecordPayload("4000000000000", "5 1 2", "41000 3 43000 1"),
       "record count 4000000000000 exceeds"},
      {OneRecordPayload("18446744073709551616", "5 1 2", "41000 3 43000 1"),
       "bad integer field: record count"},
      {"config 0000000000000000\nshards 4000000000000\nend\n",
       "shard count 4000000000000 exceeds"},
      {OneRecordPayload("1", "5 1 4000000000000", "41000 3 43000 1"),
       "runs 4000000000000 exceeds"},
      {OneRecordPayload("1", "2 0 3", "41000 1 42000 1 43000 1"),
       "runs 3 exceeds the 2 measurements"},
      {OneRecordPayload("1", "5 6 2", "41000 3 43000 1"),
       "no-flip count 6 exceeds the 5 measurements"},
      {OneRecordPayload("1", "5 0 2", "41000 3 43000 1"),
       "run counts sum to 4, expected 5"},
      {OneRecordPayload("1", "5 1 2", "41000 3 43000 2"),
       "run count 2 is zero or exceeds"},
      {OneRecordPayload("1", "5 1 2", "41000 18446744073709551615 43000 1"),
       "run count 18446744073709551615 is zero or exceeds"},
      {OneRecordPayload("1", "5 1 2", "41000 0 43000 4"),
       "run count 0 is zero"},
      {OneRecordPayload("1", "5 1 2", "43000 3 41000 1"),
       "run value 41000 is negative, too large or not ascending"},
      {OneRecordPayload("1", "5 1 2", "-5 3 43000 1"),
       "run value -5 is negative"},
      {OneRecordPayload("1", "5 1 2", "41000 3 9223372036854775807 1"),
       "run value 9223372036854775807 is negative, too large"},
  };
  for (const auto& c : cases) {
    std::stringstream corrupted(SealCheckpoint(c.payload));
    const std::string message =
        FatalMessage([&] { ReadCheckpoint(corrupted); });
    EXPECT_NE(message.find(c.error), std::string::npos)
        << c.error << ": " << message;
  }

  // Loaded from a file, the message names the file.
  const std::string path = TempPath("huge_count.ckpt");
  WriteFile(path, SealCheckpoint(OneRecordPayload(
                      "18446744073709551615", "5 1 2", "41000 3 43000 1")));
  CampaignCheckpoint out;
  const std::string message =
      FatalMessage([&] { LoadCheckpoint(path, &out); });
  EXPECT_NE(message.find("checkpoint '" + path + "'"), std::string::npos)
      << message;
  std::filesystem::remove(path);
}

/// The reader's result must hold what AnalyzeRowSeries and the cache
/// rely on.
void ExpectWellFormed(const CampaignCheckpoint& checkpoint) {
  for (const CampaignCheckpoint::ShardEntry& entry : checkpoint.shards) {
    for (const SeriesRecord& record : entry.records) {
      const SortedFlips& flips = record.flips;
      ASSERT_EQ(flips.run_values.size(), flips.run_counts.size());
      std::size_t sum = 0;
      for (std::size_t j = 0; j < flips.run_values.size(); ++j) {
        EXPECT_GE(flips.run_values[j], 0);
        EXPECT_GE(flips.run_counts[j], 1u);
        if (j != 0) {
          EXPECT_LT(flips.run_values[j - 1], flips.run_values[j]);
        }
        sum += flips.run_counts[j];
      }
      EXPECT_EQ(sum, flips.size);
    }
  }
}

/// Parse `text`: true if it parsed (checked well-formed), false on a
/// FatalError. Any other exception fails the test.
bool Parses(const std::string& text, CampaignCheckpoint* out) {
  std::stringstream in(text);
  try {
    *out = ReadCheckpoint(in);
  } catch (const FatalError&) {
    return false;
  }
  ExpectWellFormed(*out);
  return true;
}

TEST(CheckpointFuzzTest, MutatedInputsParseOrRaiseFatalError) {
  CampaignCheckpoint checkpoint;
  checkpoint.config_hash = 0xfeedfacecafebeefull;
  CampaignCheckpoint::ShardEntry entry;
  entry.status.device = "M1";
  entry.status.state = ShardState::kRetried;
  entry.status.attempts = 2;
  entry.status.error = "transient (injected)";
  entry.records = RunCampaign(TinyConfig()).records;
  checkpoint.shards.push_back(entry);
  const std::string original = ToText(checkpoint);
  const std::size_t header = original.find("config ");
  ASSERT_NE(header, std::string::npos);
  const std::string payload = original.substr(header);

  static const char* const kHuge[] = {
      "18446744073709551615", "18446744073709551616", "4000000000000",
      "9223372036854775807",  "-9223372036854775808", "-1",
      "0",                    "99999999999999999999999999"};
  Rng rng(0x5eed);
  auto mutate = [&](std::string text) {
    switch (rng.Next() % 3) {
      case 0:  // truncation
        text.resize(rng.Next() % text.size());
        break;
      case 1: {  // byte flip
        const std::size_t at = rng.Next() % text.size();
        text[at] = static_cast<char>(text[at] ^ (1 + rng.Next() % 255));
        break;
      }
      default: {  // one number replaced by a huge (or negative) one
        std::size_t at = rng.Next() % text.size();
        while (at < text.size() &&
               (text[at] < '0' || text[at] > '9')) {
          ++at;
        }
        std::size_t end = at;
        while (end < text.size() && text[end] >= '0' && text[end] <= '9') {
          ++end;
        }
        text.replace(at, end - at, kHuge[rng.Next() % std::size(kHuge)]);
        break;
      }
    }
    return text;
  };

  std::size_t rejected = 0;
  std::size_t parsed = 0;
  for (int i = 0; i < 1500; ++i) {
    // Raw mutations: the checksum or the header rejects every change,
    // unless the text still means the same checkpoint (a hex digit's
    // case, a separator's kind).
    const std::string raw = mutate(original);
    CampaignCheckpoint out;
    if (Parses(raw, &out)) {
      EXPECT_EQ(ToText(out), original) << "mutation " << i;
    } else {
      ++rejected;
    }
    // Re-sealed mutations of the payload reach the parser itself.
    if (Parses(SealCheckpoint(mutate(payload)), &out)) {
      ++parsed;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1500u);
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace vrddram::core
