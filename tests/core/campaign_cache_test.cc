/**
 * Content-addressed campaign cache tests: a warm lookup returns the
 * exact records a fresh run produces (at any worker count), disk
 * entries reuse the checkpoint grammar, and incompatible entries —
 * wrong format version or foreign config hash — refuse to load with a
 * FatalError naming the offending file for both `--resume` and cache
 * lookups.
 */
#include "core/campaign_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "core/campaign.h"
#include "core/campaign_checkpoint.h"

namespace vrddram::core {
namespace {

CampaignConfig TinyConfig() {
  CampaignConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 3;
  config.measurements = 10;
  config.temperatures = {50.0, 80.0};
  config.scan_rows_per_region = 32;
  config.threads = 1;
  return config;
}

std::string TempCacheDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("vrddram_cache_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectResultsIdentical(const CampaignResult& expected,
                            const CampaignResult& actual,
                            const std::string& context) {
  ASSERT_EQ(expected.records.size(), actual.records.size()) << context;
  for (std::size_t i = 0; i < expected.records.size(); ++i) {
    const SeriesRecord& a = expected.records[i];
    const SeriesRecord& b = actual.records[i];
    EXPECT_EQ(a.device, b.device) << context << " record " << i;
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.pattern, b.pattern);
    EXPECT_EQ(a.t_on, b.t_on);
    EXPECT_EQ(a.temperature, b.temperature);
    EXPECT_EQ(a.rdt_guess, b.rdt_guess);
    ASSERT_EQ(a.flips, b.flips) << context << " record " << i;
  }
  ASSERT_EQ(expected.shards.size(), actual.shards.size()) << context;
  for (std::size_t i = 0; i < expected.shards.size(); ++i) {
    EXPECT_EQ(expected.shards[i].device, actual.shards[i].device);
    EXPECT_EQ(expected.shards[i].temperature,
              actual.shards[i].temperature);
    EXPECT_EQ(expected.shards[i].state, actual.shards[i].state);
  }
}

TEST(CampaignCacheTest, MemoryOnlyCacheRoundTrips) {
  CampaignCache cache;  // no directory: in-process memo only
  const CampaignConfig config = TinyConfig();
  EXPECT_FALSE(cache.Lookup(config).has_value());

  const CampaignResult fresh = RunCampaign(config);
  EXPECT_TRUE(cache.Store(config, fresh));

  const auto cached = cache.Lookup(config);
  ASSERT_TRUE(cached.has_value());
  ExpectResultsIdentical(fresh, *cached, "memory cache");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(CampaignCacheTest, DiskEntrySurvivesANewCacheInstance) {
  const std::string dir = TempCacheDir("disk");
  const CampaignConfig config = TinyConfig();
  CampaignResult fresh;
  {
    CampaignCache cache(dir);
    fresh = RunCampaign(config);
    ASSERT_TRUE(cache.Store(config, fresh));
    ASSERT_TRUE(std::filesystem::exists(cache.EntryPath(config)));
  }
  CampaignCache reopened(dir);
  const auto cached = reopened.Lookup(config);
  ASSERT_TRUE(cached.has_value());
  ExpectResultsIdentical(fresh, *cached, "disk cache");
  for (const ShardStatus& shard : cached->shards) {
    EXPECT_TRUE(shard.from_checkpoint);
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, RunCampaignCachedHitMatchesFreshAtAnyThreads) {
  const std::string dir = TempCacheDir("threads");
  CampaignConfig cold = TinyConfig();
  cold.threads = 1;
  CampaignConfig warm = TinyConfig();
  warm.threads = 8;  // execution knob: same cache key, same bytes

  CampaignCache cache(dir);
  std::ostringstream telemetry;
  const CampaignResult first =
      RunCampaignCached(cold, &cache, &telemetry);
  const CampaignResult second =
      RunCampaignCached(warm, &cache, &telemetry);
  ExpectResultsIdentical(first, second, "threads 1 vs 8");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_NE(telemetry.str().find("campaign-cache: miss"),
            std::string::npos);
  EXPECT_NE(telemetry.str().find("campaign-cache: hit"),
            std::string::npos);

  // A cache-less call is exactly a fresh run.
  const CampaignResult plain = RunCampaignCached(cold, nullptr);
  ExpectResultsIdentical(plain, first, "no cache vs cold");
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, DifferentConfigsUseDifferentEntries) {
  CampaignCache cache;
  const CampaignConfig config = TinyConfig();
  CampaignConfig other = TinyConfig();
  other.measurements += 1;
  EXPECT_NE(CampaignCache("d").EntryPath(config),
            CampaignCache("d").EntryPath(other));
  ASSERT_TRUE(cache.Store(config, RunCampaign(config)));
  EXPECT_FALSE(cache.Lookup(other).has_value());
}

TEST(CampaignCacheTest, UnevenRowCountIsRejectedEvenWithAStoredEntry) {
  CampaignCache cache;
  const CampaignConfig config = TinyConfig();
  CampaignConfig uneven = config;
  uneven.rows_per_device = 2;
  // An entry stored under the bad config (as an older build could
  // have) must not turn it into a hit.
  ASSERT_TRUE(cache.Store(uneven, RunCampaign(config)));
  try {
    RunCampaignCached(uneven, &cache);
    ADD_FAILURE() << "rows_per_device=2 accepted";
  } catch (const FatalError& e) {
    EXPECT_NE(std::string(e.what()).find("got 2"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(CampaignCacheTest, RefusesToStoreQuarantinedCampaigns) {
  CampaignCache cache;
  const CampaignConfig config = TinyConfig();
  CampaignResult partial = RunCampaign(config);
  partial.shards.back().state = ShardState::kQuarantined;
  EXPECT_FALSE(cache.Store(config, partial));
  EXPECT_FALSE(cache.Lookup(config).has_value());
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(CampaignCacheTest, StoreUnderAFileRaisesFatalErrorNamingTheDirectory) {
  const std::string file = TempCacheDir("file");
  std::ofstream(file) << "not a directory\n";
  CampaignCache cache(file);
  const CampaignConfig config = TinyConfig();
  try {
    cache.Store(config, RunCampaign(config));
    FAIL() << "expected a FatalError";
  } catch (const FatalError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + file + "'"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(file);
}

TEST(CampaignCacheTest, PartialEntryIsAMissNotAnError) {
  const std::string dir = TempCacheDir("partial");
  const CampaignConfig config = TinyConfig();
  CampaignCache cache(dir);
  const CampaignResult fresh = RunCampaign(config);
  ASSERT_TRUE(cache.Store(config, fresh));

  // Truncate the entry to fewer shards than the campaign defines —
  // as an interrupted checkpoint would be. A fresh cache must treat
  // that as a miss, not serve half a campaign.
  CampaignCheckpoint checkpoint;
  ASSERT_TRUE(LoadCheckpoint(cache.EntryPath(config), &checkpoint));
  checkpoint.shards.pop_back();
  SaveCheckpoint(cache.EntryPath(config), checkpoint);

  CampaignCache reopened(dir);
  EXPECT_FALSE(reopened.Lookup(config).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, LookupRejectsForeignConfigHashNamingTheFile) {
  const std::string dir = TempCacheDir("foreign");
  const CampaignConfig config = TinyConfig();
  CampaignCache cache(dir);
  ASSERT_TRUE(cache.Store(config, RunCampaign(config)));

  // Masquerade the entry as belonging to a different configuration by
  // copying it over that configuration's entry path.
  CampaignConfig other = TinyConfig();
  other.measurements += 1;
  const std::string other_path = cache.EntryPath(other);
  std::filesystem::copy_file(cache.EntryPath(config), other_path);

  CampaignCache reopened(dir);
  try {
    reopened.Lookup(other);
    FAIL() << "expected FatalError for a foreign cache entry";
  } catch (const FatalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(other_path), std::string::npos) << what;
    EXPECT_NE(what.find("does not match"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, LookupRejectsVersionMismatchNamingTheFile) {
  const std::string dir = TempCacheDir("version");
  const CampaignConfig config = TinyConfig();
  CampaignCache cache(dir);
  const std::string path = cache.EntryPath(config);
  std::filesystem::create_directories(dir);
  {
    std::ofstream file(path, std::ios::trunc);
    file << "vrddram-campaign-checkpoint 999\n"
         << "config 0000000000000000\nshards 0\nend\n";
  }
  try {
    cache.Lookup(config);
    FAIL() << "expected FatalError for a future format version";
  } catch (const FatalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("version"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, ResumeRejectionsNameTheCheckpointFile) {
  // The same two rejection paths, exercised through --resume.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       "vrddram_cache_resume.ckpt")
          .string();
  std::filesystem::remove(path);

  CampaignConfig first = TinyConfig();
  first.checkpoint_path = path;
  RunCampaign(first);

  CampaignConfig different = TinyConfig();
  different.measurements += 5;
  different.checkpoint_path = path;
  different.resume = true;
  try {
    RunCampaign(different);
    FAIL() << "expected FatalError for a config-hash mismatch";
  } catch (const FatalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("does not match"), std::string::npos) << what;
  }

  {
    std::ofstream file(path, std::ios::trunc);
    file << "vrddram-campaign-checkpoint 999\n"
         << "config 0000000000000000\nshards 0\nend\n";
  }
  CampaignConfig stale = TinyConfig();
  stale.checkpoint_path = path;
  stale.resume = true;
  try {
    RunCampaign(stale);
    FAIL() << "expected FatalError for a format-version mismatch";
  } catch (const FatalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("version"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace vrddram::core
