/**
 * @file
 * Multi-row, multi-parameter characterization campaigns: the §5 test
 * methodology. Selects vulnerable rows per device (first/middle/last
 * regions, lowest mean RDT over 10 quick measurements), then collects
 * a measurement series per (row, data pattern, tAggOn, temperature)
 * combination, settling the thermal rig between temperature levels.
 */
#ifndef VRDDRAM_CORE_CAMPAIGN_H
#define VRDDRAM_CORE_CAMPAIGN_H

#include <iosfwd>
#include <string>
#include <vector>

#include "core/rdt_profiler.h"
#include "core/sorted_flips.h"
#include "vrd/chip_catalog.h"

namespace vrddram::core {

/// The paper's three aggressor-on-time levels (§5 test parameters).
enum class TOnChoice : std::uint8_t {
  kMinTras,    ///< minimum tRAS of the standard
  kTrefi,      ///< average refresh interval (7.8 us DDR4)
  kNineTrefi,  ///< 9 x tREFI, the longest legal row-open time
};

std::string ToString(TOnChoice choice);
Tick ResolveTOn(TOnChoice choice, const dram::TimingParams& timing);

/// Outcome of one (device, temperature) shard of a campaign.
enum class ShardState : std::uint8_t {
  kOk,           ///< succeeded on the first attempt
  kRetried,      ///< succeeded after >= 1 transient failure
  kQuarantined,  ///< gave up; the shard contributes no records
};

/**
 * Per-shard execution report, surfaced in `CampaignResult::shards`
 * (canonical device-major, temperature-minor order), in the CSV
 * exports (`shard_status` column) and in the bench summaries.
 */
struct ShardStatus {
  std::string device;
  Celsius temperature = 50.0;
  ShardState state = ShardState::kOk;
  /// Attempts executed (1 = clean first run). Restored shards keep the
  /// count recorded at checkpoint time.
  std::uint64_t attempts = 1;
  /// Simulated exponential-backoff delay accumulated across retries.
  /// Pure bookkeeping: it never advances any device clock, so a
  /// retried-then-successful shard stays bit-identical to a clean one.
  Tick backoff_ticks = 0;
  /// what() of the last failure for retried/quarantined shards.
  std::string error;
  /// True when the shard was restored from a checkpoint, not re-run.
  bool from_checkpoint = false;
};

/// "ok", "retried-<n>" (n = retries, i.e. attempts - 1), "quarantined".
std::string FormatShardStatus(const ShardStatus& status);

struct CampaignConfig {
  std::vector<std::string> devices;       ///< catalog names
  std::size_t rows_per_device = 15;       ///< paper: 150; a multiple of 3
  std::size_t measurements = 1000;
  std::vector<dram::DataPattern> patterns = {
      dram::DataPattern::kCheckered0};
  std::vector<TOnChoice> t_ons = {TOnChoice::kMinTras};
  std::vector<Celsius> temperatures = {50.0};
  /// Rows scanned per region during selection (paper: 1024).
  std::size_t scan_rows_per_region = 192;
  std::uint64_t base_seed = 2025;
  /// Settle temperatures through the simulated heater + PID rig; when
  /// false the device temperature is set directly (fast).
  bool use_thermal_rig = false;
  /**
   * Worker threads for the campaign executor: the campaign is sharded
   * at (device, temperature) granularity and shards run concurrently
   * on the shard executor (RunShards). 0 selects hardware_concurrency,
   * 1 runs the shards inline on the calling thread. Results are
   * bit-identical for every setting: each shard derives all state
   * deterministically from (device name, base_seed) and the merge order
   * is canonical.
   */
  std::size_t threads = 0;

  // --- Resilience (DESIGN.md "Failure semantics") -------------------

  /// Attempts per shard before giving up; each attempt rebuilds the
  /// shard's device from scratch, so a retry that succeeds produces
  /// records bit-identical to a never-failed shard.
  std::size_t max_attempts = 3;
  /// When true (default) a shard that exhausts its attempts — or fails
  /// fatally — is quarantined and the campaign degrades gracefully to
  /// the surviving shards. When false the error propagates out of
  /// RunCampaign (the pre-resilience all-or-nothing behavior).
  bool quarantine = true;
  /// Fault-injection spec (fi::FaultPlan grammar), "" = no injection.
  /// The plan is seeded from `base_seed`. Injection and resilience
  /// knobs do not participate in the checkpoint config hash: they
  /// change how shards execute, never what a completed shard records.
  std::string inject;
  /// When non-empty, completed (ok/retried) shards are checkpointed to
  /// this path after each completion (atomic tmp + rename), so an
  /// interrupted campaign can resume without re-measuring them.
  std::string checkpoint_path;
  /// With `resume`, shards present in the checkpoint are restored
  /// verbatim instead of re-run; a missing checkpoint file runs the
  /// full campaign. Quarantined shards are never checkpointed, so a
  /// resume re-attempts them.
  bool resume = false;
};

/**
 * One collected measurement series and its full test-parameter key.
 * The series is kept as its value distribution (sorted runs plus the
 * no-flip count), not in measurement order: every campaign analysis
 * reads only the distribution, and a paper-scale series of 1,000
 * measurements has ~14 distinct values (DESIGN.md §9).
 */
struct SeriesRecord {
  std::string device;
  vrd::Manufacturer mfr = vrd::Manufacturer::kMfrH;
  dram::Standard standard = dram::Standard::kDdr4;
  std::uint32_t density_gbit = 0;
  char die_rev = '?';
  dram::RowAddr row = 0;
  dram::DataPattern pattern = dram::DataPattern::kCheckered0;
  TOnChoice t_on = TOnChoice::kMinTras;
  Celsius temperature = 50.0;
  std::uint64_t rdt_guess = 0;
  SortedFlips flips;
};

struct CampaignResult {
  std::vector<SeriesRecord> records;
  /// One status per shard, canonical device-major/temperature-minor
  /// order regardless of worker count or completion order.
  std::vector<ShardStatus> shards;
};

/**
 * §5 row selection: quick-measure rows in the first, middle, and last
 * `scan_per_region` rows of the bank (10 analytic samples each) and
 * keep the `per_region` rows with the smallest mean RDT from each
 * region. Rows that never flip are skipped.
 */
std::vector<dram::RowAddr> SelectVulnerableRows(
    dram::Device& device, vrd::TrapFaultEngine& engine, dram::BankId bank,
    std::size_t per_region, std::size_t scan_per_region,
    dram::DataPattern pattern, Tick t_on);

/// Throw a FatalError naming the field when `config` cannot run: no
/// devices or measurements, a row count that is not a positive multiple
/// of 3 (rows are selected a third per bank region), no patterns,
/// tAggOn choices or temperatures, no attempts, or a resume without a
/// checkpoint path.
void ValidateCampaignConfig(const CampaignConfig& config);

/**
 * Run a full campaign. Work is sharded per (device, temperature) and
 * executed on `config.threads` workers; every shard builds its own
 * `dram::Device` (device state is derived purely from the catalog name
 * and `base_seed`), so shards share nothing and the merged result is
 * bit-identical to a single-threaded run.
 *
 * `progress` (optional) receives one telemetry line per completed
 * shard — rows, series, measurements, wall-clock seconds, and the
 * series/s and measurements/s rates — plus a campaign summary line.
 * Writes are mutex-serialized; with several workers the *order* of
 * shard lines follows completion order, only the records are
 * canonically ordered.
 */
CampaignResult RunCampaign(const CampaignConfig& config,
                           std::ostream* progress = nullptr);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_CAMPAIGN_H
