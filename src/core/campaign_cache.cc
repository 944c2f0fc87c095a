#include "core/campaign_cache.h"

#include <filesystem>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/error.h"
#include "core/campaign_checkpoint.h"

namespace vrddram::core {

namespace {

std::string HashHex(std::uint64_t hash) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << hash;
  return os.str();
}

bool IsComplete(const CampaignResult& result) {
  for (const ShardStatus& status : result.shards) {
    if (status.state == ShardState::kQuarantined) {
      return false;
    }
  }
  return !result.shards.empty();
}

/// Split the canonically ordered flat record list back into per-shard
/// lists. Records carry the exact (device, temperature) key their
/// shard ran with, so the match is exact.
std::vector<CampaignCheckpoint::ShardEntry> ToShardEntries(
    const CampaignResult& result) {
  std::map<std::pair<std::string, double>, std::size_t> index_of;
  std::vector<CampaignCheckpoint::ShardEntry> entries(
      result.shards.size());
  for (std::size_t i = 0; i < result.shards.size(); ++i) {
    entries[i].index = i;
    entries[i].status = result.shards[i];
    index_of[{result.shards[i].device,
              result.shards[i].temperature}] = i;
  }
  for (const SeriesRecord& record : result.records) {
    const auto it = index_of.find({record.device, record.temperature});
    VRD_FATAL_IF(it == index_of.end(),
                 "campaign-cache: record for " + record.device +
                     " matches no shard of the result being stored");
    entries[it->second].records.push_back(record);
  }
  return entries;
}

CampaignResult FromCheckpoint(CampaignCheckpoint&& checkpoint) {
  CampaignResult result;
  for (CampaignCheckpoint::ShardEntry& entry : checkpoint.shards) {
    for (SeriesRecord& record : entry.records) {
      result.records.push_back(std::move(record));
    }
    result.shards.push_back(std::move(entry.status));
  }
  return result;
}

}  // namespace

CampaignCache::CampaignCache(std::string dir) : dir_(std::move(dir)) {}

std::string CampaignCache::EntryPath(
    const CampaignConfig& config) const {
  if (dir_.empty()) {
    return "";
  }
  return (std::filesystem::path(dir_) /
          ("campaign-" + HashHex(HashCampaignConfig(config)) + ".ckpt"))
      .string();
}

std::optional<CampaignResult> CampaignCache::Lookup(
    const CampaignConfig& config, std::ostream* telemetry) {
  const std::uint64_t hash = HashCampaignConfig(config);
  const auto memo = memo_.find(hash);
  if (memo != memo_.end()) {
    ++stats_.hits;
    return memo->second;
  }
  if (!dir_.empty()) {
    CampaignCheckpoint checkpoint;
    bool loaded = false;
    try {
      loaded = LoadCheckpointFor(EntryPath(config), hash, &checkpoint);
    } catch (const CheckpointChecksumError& error) {
      // A damaged entry is recomputed and overwritten by the Store that
      // follows the miss; only a well-formed foreign entry is an error.
      if (telemetry != nullptr) {
        *telemetry << "campaign-cache: warning: " << error.what()
                   << "; re-executing\n";
      }
    }
    if (loaded) {
      // A valid entry must cover every shard of the campaign exactly
      // once (quarantined shards are never serialized). Anything less
      // is a foreign or partial file: fall through to a fresh run.
      const std::size_t expected =
          config.devices.size() * config.temperatures.size();
      bool complete = checkpoint.shards.size() == expected;
      for (std::size_t i = 0; complete && i < checkpoint.shards.size();
           ++i) {
        complete = checkpoint.shards[i].index == i;
      }
      if (complete) {
        CampaignResult result = FromCheckpoint(std::move(checkpoint));
        ++stats_.hits;
        memo_.emplace(hash, result);
        return result;
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

bool CampaignCache::Store(const CampaignConfig& config,
                          const CampaignResult& result) {
  if (!IsComplete(result)) {
    return false;
  }
  const std::uint64_t hash = HashCampaignConfig(config);
  memo_.insert_or_assign(hash, result);
  if (!dir_.empty()) {
    std::error_code error;
    std::filesystem::create_directories(dir_, error);
    VRD_FATAL_IF(error, "cannot create campaign cache directory '" + dir_ +
                            "': " + error.message());
    CampaignCheckpoint checkpoint;
    checkpoint.config_hash = hash;
    checkpoint.shards = ToShardEntries(result);
    SaveCheckpoint(EntryPath(config), checkpoint);
  }
  ++stats_.stores;
  return true;
}

CampaignResult RunCampaignCached(const CampaignConfig& config,
                                 CampaignCache* cache,
                                 std::ostream* telemetry,
                                 std::ostream* progress) {
  if (cache == nullptr) {
    return RunCampaign(config, progress);
  }
  // A stored entry never makes an invalid config valid.
  ValidateCampaignConfig(config);
  const std::string key = HashHex(HashCampaignConfig(config));
  if (std::optional<CampaignResult> result =
          cache->Lookup(config, telemetry)) {
    if (telemetry != nullptr) {
      *telemetry << "campaign-cache: hit " << key << " ("
                 << result->records.size() << " series, "
                 << result->shards.size() << " shards)\n";
    }
    return *std::move(result);
  }
  if (telemetry != nullptr) {
    *telemetry << "campaign-cache: miss " << key
               << ": executing campaign\n";
  }
  CampaignResult result = RunCampaign(config, progress);
  if (cache->Store(config, result)) {
    if (telemetry != nullptr) {
      *telemetry << "campaign-cache: stored " << key
                 << (cache->dir().empty() ? " (memory)\n" : "\n");
    }
  } else if (telemetry != nullptr) {
    *telemetry << "campaign-cache: not cached " << key
               << " (campaign has quarantined shards)\n";
  }
  return result;
}

}  // namespace vrddram::core
