/**
 * Golden determinism-under-faults tests (DESIGN.md "Failure
 * semantics"): checkpoint → interrupt → resume reproduces an
 * uninterrupted campaign bit for bit at any worker count, and a
 * seeded fault schedule quarantines or retries exactly the targeted
 * shards while every surviving shard stays byte-identical to the
 * fault-free run.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/campaign.h"
#include "core/campaign_checkpoint.h"
#include "core/checkpoint_text.h"

namespace vrddram::core {
namespace {

CampaignConfig TinyConfig() {
  CampaignConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 3;
  config.measurements = 15;
  config.temperatures = {50.0, 80.0};
  config.scan_rows_per_region = 32;
  config.threads = 1;
  return config;
}

std::string TempCheckpointPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("vrddram_" + name + ".ckpt"))
      .string();
}

void ExpectRecordsIdentical(const std::vector<SeriesRecord>& expected,
                            const std::vector<SeriesRecord>& actual,
                            const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const SeriesRecord& a = expected[i];
    const SeriesRecord& b = actual[i];
    EXPECT_EQ(a.device, b.device) << context << " record " << i;
    EXPECT_EQ(a.mfr, b.mfr);
    EXPECT_EQ(a.standard, b.standard);
    EXPECT_EQ(a.density_gbit, b.density_gbit);
    EXPECT_EQ(a.die_rev, b.die_rev);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.pattern, b.pattern);
    EXPECT_EQ(a.t_on, b.t_on);
    EXPECT_EQ(a.temperature, b.temperature);
    EXPECT_EQ(a.rdt_guess, b.rdt_guess);
    ASSERT_EQ(a.flips, b.flips) << context << " record " << i;
  }
}

/// A one-shard, one-record checkpoint. `record_fields` are the
/// record's mfr, standard, density, die_rev, row, pattern and t_on.
std::string CheckpointText(const std::string& shard_state,
                           const std::string& record_fields) {
  return SealCheckpoint(
      "config 0000000000000000\nshards 1\nshard 0 M1 4054000000000000 " +
      shard_state + " 1 0\nerror \nrecords 1\nrecord M1 " + record_fields +
      " 4054000000000000 42000 1 0 1\n41000 1\nend\n");
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

TEST(CampaignCheckpointTest, RoundTripPreservesEverything) {
  CampaignCheckpoint checkpoint;
  checkpoint.config_hash = 0xdeadbeefcafef00dull;
  CampaignCheckpoint::ShardEntry entry;
  entry.index = 2;
  entry.status.device = "M1";
  entry.status.temperature = 80.0;
  entry.status.state = ShardState::kRetried;
  entry.status.attempts = 2;
  entry.status.backoff_ticks = 12345;
  entry.status.error = "thermal rig: PID sensor dropout (injected)";
  SeriesRecord record;
  record.device = "M1";
  record.mfr = vrd::Manufacturer::kMfrM;
  record.density_gbit = 8;
  record.die_rev = 'B';
  record.row = 77;
  record.pattern = dram::DataPattern::kRowstripe1;
  record.t_on = TOnChoice::kNineTrefi;
  record.temperature = 80.0;
  record.rdt_guess = 42000;
  record.flips = BuildSortedFlips(std::vector<std::int64_t>{41000, -1, 43000});
  entry.records.push_back(record);
  checkpoint.shards.push_back(entry);

  std::stringstream buffer;
  WriteCheckpoint(buffer, checkpoint);
  const CampaignCheckpoint loaded = ReadCheckpoint(buffer);

  EXPECT_EQ(loaded.config_hash, checkpoint.config_hash);
  ASSERT_EQ(loaded.shards.size(), 1u);
  const CampaignCheckpoint::ShardEntry& out = loaded.shards[0];
  EXPECT_EQ(out.index, 2u);
  EXPECT_EQ(out.status.device, "M1");
  EXPECT_EQ(out.status.temperature, 80.0);
  EXPECT_EQ(out.status.state, ShardState::kRetried);
  EXPECT_EQ(out.status.attempts, 2u);
  EXPECT_EQ(out.status.backoff_ticks, 12345);
  EXPECT_EQ(out.status.error, entry.status.error);
  ExpectRecordsIdentical(entry.records, out.records, "round trip");
}

TEST(CampaignCheckpointTest, RejectsVersionAndGarbage) {
  std::stringstream future_version(
      "vrddram-campaign-checkpoint 999\n"
      "config 0000000000000000\nshards 0\nend\n");
  EXPECT_THROW(ReadCheckpoint(future_version), FatalError);
  std::stringstream garbage("not a checkpoint at all\n");
  EXPECT_THROW(ReadCheckpoint(garbage), FatalError);

  // Out-of-range enum fields, as in a corrupted cache entry, raise a
  // FatalError naming the field instead of being cast into the enum.
  std::stringstream intact(CheckpointText("1", "1 0 8 66 77 3 2"));
  EXPECT_NO_THROW(ReadCheckpoint(intact));
  const struct {
    const char* shard_state;
    const char* record_fields;
    const char* error;
  } corruptions[] = {
      {"1", "3 0 8 66 77 3 2", "mfr 3 out of range"},
      {"1", "1 -1 8 66 77 3 2", "standard -1 out of range"},
      {"1", "1 0 8 66 77 7 2", "pattern 7 out of range"},
      {"1", "1 0 8 66 77 3 3", "t_on 3 out of range"},
      {"3", "1 0 8 66 77 3 2", "shard state 3 out of range"},
  };
  for (const auto& c : corruptions) {
    std::stringstream corrupted(
        CheckpointText(c.shard_state, c.record_fields));
    const std::string message =
        FatalMessage([&] { ReadCheckpoint(corrupted); });
    EXPECT_NE(message.find(c.error), std::string::npos)
        << c.error << ": " << message;
  }

  // Loaded from a file, the message also names the file.
  const std::string path = TempCheckpointPath("corrupt_pattern");
  std::ofstream(path, std::ios::trunc)
      << CheckpointText("1", "1 0 8 66 77 7 2");
  CampaignCheckpoint out;
  const std::string message =
      FatalMessage([&] { LoadCheckpoint(path, &out); });
  EXPECT_NE(message.find("checkpoint '" + path + "'"), std::string::npos)
      << message;
  std::filesystem::remove(path);
}

TEST(CampaignCheckpointTest, ConfigHashTracksResultsNotExecution) {
  const CampaignConfig base = TinyConfig();
  const std::uint64_t hash = HashCampaignConfig(base);

  // Execution knobs must not change the hash: a campaign interrupted
  // under fault injection resumes cleanly without it.
  CampaignConfig execution = base;
  execution.threads = 8;
  execution.inject = "core.campaign.shard:p=1";
  execution.max_attempts = 1;
  execution.quarantine = false;
  execution.checkpoint_path = "/tmp/somewhere.ckpt";
  execution.resume = true;
  EXPECT_EQ(HashCampaignConfig(execution), hash);

  // Result-defining fields must.
  CampaignConfig results = base;
  results.measurements += 1;
  EXPECT_NE(HashCampaignConfig(results), hash);
  CampaignConfig temps = base;
  temps.temperatures = {50.0, 85.0};
  EXPECT_NE(HashCampaignConfig(temps), hash);
}

TEST(CampaignCheckpointTest, LoadReturnsFalseForMissingFile) {
  CampaignCheckpoint out;
  EXPECT_FALSE(
      LoadCheckpoint(TempCheckpointPath("does_not_exist"), &out));
}

TEST(CampaignResilienceTest, ResumeAfterInterruptIsBitIdentical) {
  // Golden test (a): run to completion, then replay the same campaign
  // with an injected hard failure in the last canonical shard
  // (checkpointing as it goes), then resume without injection. The
  // resumed records must be bit-identical to the uninterrupted run at
  // 1 and 8 workers.
  const CampaignConfig base = TinyConfig();
  const CampaignResult baseline = RunCampaign(base);
  ASSERT_FALSE(baseline.records.empty());

  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    const std::string path = TempCheckpointPath(
        "resume_" + std::to_string(workers));
    std::filesystem::remove(path);

    CampaignConfig interrupted = base;
    interrupted.threads = workers;
    interrupted.checkpoint_path = path;
    interrupted.inject = "core.campaign.shard:p=1,match=S2@80";
    interrupted.quarantine = false;  // fail hard, like a kill
    interrupted.max_attempts = 1;
    EXPECT_THROW(RunCampaign(interrupted), TransientError)
        << "workers=" << workers;

    // The interrupt left a loadable checkpoint of whatever shards
    // completed before the failure. At one worker that is exactly the
    // three shards preceding S2@80 in canonical order; at eight the
    // abort races shard startup, so anything from zero (no file yet)
    // to three is legitimate — resume handles every case.
    CampaignCheckpoint snapshot;
    const bool have_snapshot = LoadCheckpoint(path, &snapshot);
    if (workers == 1) {
      ASSERT_TRUE(have_snapshot);
      EXPECT_EQ(snapshot.shards.size(), 3u);
    }
    if (have_snapshot) {
      EXPECT_LT(snapshot.shards.size(), 4u) << "failed shard checkpointed?";
    }

    CampaignConfig resumed = base;
    resumed.threads = workers;
    resumed.checkpoint_path = path;
    resumed.resume = true;  // no injection this time
    const CampaignResult result = RunCampaign(resumed);

    ExpectRecordsIdentical(baseline.records, result.records,
                           "workers=" + std::to_string(workers));
    ASSERT_EQ(result.shards.size(), 4u);
    std::size_t restored = 0;
    for (const ShardStatus& status : result.shards) {
      EXPECT_NE(status.state, ShardState::kQuarantined);
      restored += status.from_checkpoint ? 1u : 0u;
    }
    EXPECT_EQ(restored, have_snapshot ? snapshot.shards.size() : 0u)
        << "workers=" << workers;
    std::filesystem::remove(path);
  }
}

TEST(CampaignResilienceTest, QuarantineLeavesSurvivorsByteIdentical) {
  // Golden test (b): a seeded fault schedule that always kills the M1
  // shards quarantines exactly those, reports them in ShardStatus,
  // and leaves every surviving record byte-identical to the
  // fault-free run.
  const CampaignConfig base = TinyConfig();
  const CampaignResult baseline = RunCampaign(base);
  std::vector<SeriesRecord> surviving_baseline;
  for (const SeriesRecord& record : baseline.records) {
    if (record.device == "S2") {
      surviving_baseline.push_back(record);
    }
  }
  ASSERT_FALSE(surviving_baseline.empty());

  const std::string path = TempCheckpointPath("quarantine");
  std::filesystem::remove(path);
  CampaignConfig faulty = base;
  faulty.inject = "core.campaign.shard:p=1,match=M1";
  faulty.max_attempts = 2;
  faulty.checkpoint_path = path;
  const CampaignResult result = RunCampaign(faulty);

  ExpectRecordsIdentical(surviving_baseline, result.records, "survivors");
  ASSERT_EQ(result.shards.size(), 4u);
  for (const ShardStatus& status : result.shards) {
    if (status.device == "M1") {
      EXPECT_EQ(status.state, ShardState::kQuarantined);
      EXPECT_EQ(status.attempts, 2u);
      EXPECT_FALSE(status.error.empty());
      EXPECT_EQ(FormatShardStatus(status), "quarantined");
    } else {
      EXPECT_EQ(status.state, ShardState::kOk);
      EXPECT_EQ(FormatShardStatus(status), "ok");
    }
  }

  // Quarantined shards are never checkpointed: a later resume
  // re-attempts them (and succeeds once the fault is gone).
  CampaignCheckpoint snapshot;
  ASSERT_TRUE(LoadCheckpoint(path, &snapshot));
  EXPECT_EQ(snapshot.shards.size(), 2u);
  CampaignConfig healed = base;
  healed.checkpoint_path = path;
  healed.resume = true;
  const CampaignResult recovered = RunCampaign(healed);
  ExpectRecordsIdentical(baseline.records, recovered.records,
                         "recovered");
  std::filesystem::remove(path);
}

TEST(CampaignResilienceTest, RetriedShardIsBitIdenticalToCleanRun) {
  // attempt_lt=1 makes the fault fire on attempt 0 only: the shard
  // fails once, backs off (in simulated ticks), and succeeds on the
  // retry with records bit-identical to a never-failed run.
  const CampaignConfig base = TinyConfig();
  const CampaignResult baseline = RunCampaign(base);

  CampaignConfig flaky = base;
  flaky.inject = "core.campaign.shard:p=1,match=M1@50,attempt_lt=1";
  const CampaignResult result = RunCampaign(flaky);

  ExpectRecordsIdentical(baseline.records, result.records, "retried");
  ASSERT_EQ(result.shards.size(), 4u);
  const ShardStatus& retried = result.shards[0];
  EXPECT_EQ(retried.device, "M1");
  EXPECT_EQ(retried.temperature, 50.0);
  EXPECT_EQ(retried.state, ShardState::kRetried);
  EXPECT_EQ(retried.attempts, 2u);
  // One retry backs off by the base of one simulated second.
  EXPECT_EQ(retried.backoff_ticks, units::kSecond);
  EXPECT_FALSE(retried.error.empty());
  EXPECT_EQ(FormatShardStatus(retried), "retried-1");
  for (std::size_t i = 1; i < result.shards.size(); ++i) {
    EXPECT_EQ(result.shards[i].state, ShardState::kOk);
  }
}

TEST(CampaignResilienceTest, ThermalFaultsRetryThroughTheRig) {
  // Faults injected deeper in the stack (the thermal rig, not the
  // shard wrapper) surface as TransientError and ride the same
  // retry machinery to a bit-identical result.
  CampaignConfig base = TinyConfig();
  base.devices = {"S2"};
  base.use_thermal_rig = true;
  const CampaignResult baseline = RunCampaign(base);

  CampaignConfig flaky = base;
  flaky.inject = "bender.thermal.sensor:p=1,attempt_lt=1,max=1";
  const CampaignResult result = RunCampaign(flaky);
  ExpectRecordsIdentical(baseline.records, result.records, "thermal");
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_EQ(result.shards[0].state, ShardState::kRetried);
}

TEST(CampaignResilienceTest, ResumeRejectsConfigHashMismatch) {
  const std::string path = TempCheckpointPath("hash_mismatch");
  std::filesystem::remove(path);
  CampaignConfig first = TinyConfig();
  first.checkpoint_path = path;
  RunCampaign(first);

  CampaignConfig different = TinyConfig();
  different.measurements += 5;
  different.checkpoint_path = path;
  different.resume = true;
  EXPECT_THROW(RunCampaign(different), FatalError);
  std::filesystem::remove(path);
}

TEST(CampaignResilienceTest, ResumeRequiresCheckpointPath) {
  CampaignConfig config = TinyConfig();
  config.resume = true;
  EXPECT_THROW(RunCampaign(config), FatalError);
  CampaignConfig no_attempts = TinyConfig();
  no_attempts.max_attempts = 0;
  EXPECT_THROW(RunCampaign(no_attempts), FatalError);
  // A site nothing evaluates would run the campaign clean; reject it,
  // naming the site and the wired ones.
  CampaignConfig unwired = TinyConfig();
  unwired.inject = "core.campaign.shard:match=M1;bender.host.run:p=1";
  const std::string message =
      FatalMessage([&] { RunCampaign(unwired); });
  EXPECT_NE(message.find("unknown site 'bender.host.run'"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("core.campaign.shard"), std::string::npos)
      << message;
  EXPECT_NE(message.find("bender.thermal.sensor"), std::string::npos)
      << message;
}

}  // namespace
}  // namespace vrddram::core
