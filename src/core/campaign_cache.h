/**
 * @file
 * Content-addressed cache of completed campaigns.
 *
 * A campaign is keyed by `HashCampaignConfig` — the hash over the
 * result-defining configuration fields that the checkpoint machinery
 * already computes — and stored with the same versioned bit-cast-hex
 * shard serialization, so a cache hit restores a `CampaignResult`
 * that is bit-identical to the one a fresh run would produce at any
 * `--threads` setting. Execution knobs (worker count, retry policy,
 * fault injection, checkpoint paths) never participate in the key:
 * two configs that intend the same records share one entry.
 *
 * The cache has two layers:
 *
 *  - an in-process memo, so one driver invocation (`vrdrepro run
 *    --all`) executes each unique campaign exactly once and fans all
 *    dependent analyses out over the memoized result, and
 *  - an optional on-disk directory (one checkpoint file per entry,
 *    written with the atomic tmp+rename of `SaveCheckpoint`), so a
 *    later invocation skips the campaigns entirely.
 *
 * Only *complete* campaigns are cached: a result with a quarantined
 * shard is degraded and must be re-attempted, never replayed. A disk
 * entry whose format version or config hash does not match raises
 * `FatalError` naming the offending file — silently mixing results
 * from a different configuration is the one failure mode a
 * content-addressed store must never have. An entry whose checksum
 * does not match its content (an edit or a truncation) is a miss: the
 * campaign re-executes and the store overwrites the entry.
 */
#ifndef VRDDRAM_CORE_CAMPAIGN_CACHE_H
#define VRDDRAM_CORE_CAMPAIGN_CACHE_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "core/campaign.h"

namespace vrddram::core {

/// Hit/miss/store counters, surfaced in driver telemetry.
struct CampaignCacheStats {
  std::size_t hits = 0;    ///< lookups served from memory or disk
  std::size_t misses = 0;  ///< lookups that fell through to RunCampaign
  std::size_t stores = 0;  ///< complete results admitted to the cache
};

class CampaignCache {
 public:
  /// `dir` is the on-disk entry directory ("" = in-memory only). The
  /// directory is created lazily on the first Store.
  explicit CampaignCache(std::string dir = "");

  /**
   * Return the cached result for `config`, or nullopt on a miss.
   * Disk entries are validated (format version, checksum, config hash,
   * one entry per shard, no quarantined shards) before use; a version
   * or hash mismatch raises FatalError naming the file, while an
   * incomplete entry is treated as a miss, and so is a checksum
   * mismatch, after a `campaign-cache: warning:` line naming the file
   * on `telemetry` (optional).
   */
  std::optional<CampaignResult> Lookup(const CampaignConfig& config,
                                       std::ostream* telemetry = nullptr);

  /**
   * Admit a completed campaign. Results with quarantined shards are
   * rejected (returns false): they are degraded, and a resumed or
   * retried campaign must be able to re-attempt the missing shards.
   */
  bool Store(const CampaignConfig& config, const CampaignResult& result);

  /// Path of the disk entry for `config` ("" when in-memory only).
  std::string EntryPath(const CampaignConfig& config) const;

  const std::string& dir() const { return dir_; }
  const CampaignCacheStats& stats() const { return stats_; }

 private:
  std::string dir_;
  std::map<std::uint64_t, CampaignResult> memo_;
  CampaignCacheStats stats_;
};

/**
 * Run `config` through `cache`: a hit returns the stored result
 * without executing anything; a miss runs `RunCampaign` and admits
 * the result. `cache == nullptr` degrades to a plain `RunCampaign`
 * (the `--no-cache` escape hatch). `telemetry` (optional) receives
 * one `campaign-cache:` line per lookup — hit/miss, the 16-hex-digit
 * key, and where the entry came from or went.
 */
CampaignResult RunCampaignCached(const CampaignConfig& config,
                                 CampaignCache* cache,
                                 std::ostream* telemetry = nullptr,
                                 std::ostream* progress = nullptr);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_CAMPAIGN_CACHE_H
