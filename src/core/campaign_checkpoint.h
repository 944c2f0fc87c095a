/**
 * @file
 * Versioned on-disk checkpointing for campaign shards.
 *
 * A checkpoint is a plain-text snapshot of every *completed* (ok or
 * retried) shard of a campaign: its `ShardStatus` plus the full
 * `SeriesRecord`s it produced, each series as its (value, count) runs
 * and no-flip count. Quarantined shards are deliberately not stored,
 * so resuming re-attempts them. The grammar (DESIGN.md §8):
 *
 *     vrddram-campaign-checkpoint <version>
 *     checksum <16 hex digits>
 *     config <16 hex digits>
 *     shards <n>
 *     shard <index> <device> <temperature> <state> <attempts> <backoff>
 *     error <free text to the end of the line>
 *     records <n>
 *     record <device> <mfr> <standard> <density> <die_rev> <row>
 *            <pattern> <t_on> <temperature> <rdt_guess>
 *            <measurements> <no_flips> <runs>          (one line)
 *     <value> <count> ... (runs pairs, values ascending, one line)
 *     end
 *
 * The checksum covers every byte after its own line, so an edit or a
 * truncation anywhere below it is detected before any field is used.
 * The config line hashes the campaign configuration (the fields that
 * define the intended results — devices, rows, measurements, patterns,
 * tAggOn levels, temperatures, scan width, base seed, thermal-rig
 * mode). Execution knobs (threads, retry/quarantine policy, fault
 * injection, checkpoint paths) are excluded: they change how shards
 * run, never what a completed shard records. Loading rejects a version,
 * checksum or config-hash mismatch with FatalError rather than silently
 * mixing incompatible results, and bounds every count it reads (by the
 * bytes left in the file, and a record's run counts and no-flip count
 * by its measurement count) before using it.
 *
 * Floating-point fields are serialized as bit-cast hexadecimal, so a
 * resumed campaign is bit-identical to an uninterrupted one.
 */
#ifndef VRDDRAM_CORE_CAMPAIGN_CHECKPOINT_H
#define VRDDRAM_CORE_CAMPAIGN_CHECKPOINT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "core/campaign.h"

namespace vrddram::core {

struct CampaignCheckpoint {
  /// Bump when the on-disk grammar changes incompatibly. Version 2
  /// stores runs instead of raw series and adds the checksum.
  static constexpr std::uint32_t kFormatVersion = 2;

  struct ShardEntry {
    std::size_t index = 0;  ///< position in the canonical shard order
    ShardStatus status;
    std::vector<SeriesRecord> records;
  };

  std::uint64_t config_hash = 0;
  /// Sorted by `index`; at most one entry per shard.
  std::vector<ShardEntry> shards;
};

/// A checkpoint whose checksum does not match its content: corrupt or
/// truncated. A cache entry that raises it is a miss; a --resume
/// checkpoint is an error.
class CheckpointChecksumError : public FatalError {
 public:
  using FatalError::FatalError;
};

/// Hash of the result-defining configuration fields (see file docs).
std::uint64_t HashCampaignConfig(const CampaignConfig& config);

/// The checksum of a payload: every byte after the checksum line.
std::uint64_t CheckpointChecksum(std::string_view payload);

/// Serialize / parse the checkpoint grammar. Parse errors and stream
/// failures raise FatalError; a checksum mismatch raises
/// CheckpointChecksumError.
void WriteCheckpoint(std::ostream& os, const CampaignCheckpoint& checkpoint);
CampaignCheckpoint ReadCheckpoint(std::istream& is);

/**
 * Atomically persist `checkpoint` to `path`: the snapshot is written
 * to `path + ".tmp"` and renamed over the target, so a crash mid-save
 * leaves either the previous checkpoint or the new one, never a
 * truncated file. Raises FatalError on I/O failure.
 */
void SaveCheckpoint(const std::string& path,
                    const CampaignCheckpoint& checkpoint);

/**
 * Load the checkpoint at `path` into `out`. Returns false (leaving
 * `out` untouched) when the file does not exist — the "nothing to
 * resume" case. Malformed content raises FatalError naming `path`
 * (CheckpointChecksumError for a checksum mismatch).
 */
bool LoadCheckpoint(const std::string& path, CampaignCheckpoint* out);

/**
 * LoadCheckpoint, then verify the stored config hash matches
 * `expected_config_hash`. Both rejection paths — format-version
 * mismatch and config-hash mismatch — raise FatalError naming `path`,
 * so a stale `--resume` file or a foreign cache entry is always
 * attributable. Returns false when the file does not exist.
 */
bool LoadCheckpointFor(const std::string& path,
                       std::uint64_t expected_config_hash,
                       CampaignCheckpoint* out);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_CAMPAIGN_CHECKPOINT_H
