/**
 * @file
 * The DRAM device under test: command-level model of one DDR4 module
 * rank (chips in lockstep) or one HBM2 channel. It owns the data
 * arrays, the timing-checked bank FSMs, the logical-to-physical row
 * remapping and retention behaviour, and delegates read-disturbance
 * physics to a pluggable ReadDisturbanceModel (the VRD trap engine in
 * src/vrd). There is no REF command: the paper's rig (§3.1) disables
 * periodic refresh, and with it on-die TRR.
 *
 * Commands are auto-scheduled at the earliest JEDEC-legal instant, the
 * way DRAM Bender programs are tightly scheduled on the FPGA; Sleep()
 * inserts deliberate idle time (e.g. to realize a RowPress tAggOn).
 */
#ifndef VRDDRAM_DRAM_DEVICE_H
#define VRDDRAM_DRAM_DEVICE_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dram/bank.h"
#include "dram/cell_encoding.h"
#include "dram/disturbance_model.h"
#include "dram/organization.h"
#include "dram/retention.h"
#include "dram/row_mapping.h"
#include "dram/timing.h"
#include "dram/types.h"

namespace vrddram::dram {

/// Static description of one device under test.
struct DeviceConfig {
  std::string name = "DEV0";
  Organization org;
  TimingParams timing = MakeDdr4_3200();
  RowMappingScheme row_mapping = RowMappingScheme::kDirect;
  double anti_cell_fraction = 0.4;
  RetentionParams retention = RetentionParams::MakeDefault();
  /// Device-unique seed: every "chip" is a distinct individual.
  std::uint64_t seed = 1;
  /// HBM2 on-die SEC ECC; enabled at power-up, disabled via MR bit.
  bool has_on_die_ecc = false;
  /// DDR5 PRAC: per-row activation counters with ALERT_n back-off
  /// (JESD79-5C). Configure the threshold via SetPracThreshold().
  bool has_prac = false;
};

/// Counts of commands the device has executed (test/time-model hooks).
struct CommandCounts {
  std::uint64_t act = 0;
  std::uint64_t pre = 0;
  std::uint64_t rd = 0;
  std::uint64_t wr = 0;
};

class Device {
 public:
  /// Constructs the device; if `model` is null a NullDisturbanceModel
  /// is installed (rows never flip from hammering).
  Device(DeviceConfig config,
         std::unique_ptr<ReadDisturbanceModel> model = nullptr);

  // -- identity & geometry ------------------------------------------------
  const std::string& name() const { return config_.name; }
  const DeviceConfig& config() const { return config_; }
  const Organization& org() const { return config_.org; }
  const TimingParams& timing() const { return config_.timing; }
  const RowMapper& mapper() const { return mapper_; }
  const CellEncodingLayout& encoding() const { return encoding_; }
  ReadDisturbanceModel& model() { return *model_; }

  // -- environment --------------------------------------------------------
  Celsius temperature() const { return temperature_; }
  void SetTemperature(Celsius celsius) { temperature_ = celsius; }

  Tick Now() const { return now_; }
  /// Idle the command bus for `duration` ticks.
  void Sleep(Tick duration);

  // -- mode registers -----------------------------------------------------
  /// HBM2 MR bit that enables/disables on-die ECC (JESD235D); no-op on
  /// devices without on-die ECC.
  void SetOnDieEccEnabled(bool enabled);

  // -- PRAC (per-row activation counting, JESD79-5C) ------------------------
  /// Program the back-off threshold; 0 disables alerting. Requires
  /// has_prac.
  void SetPracThreshold(std::uint64_t threshold);
  /// ALERT_n: a row's activation count crossed the threshold.
  bool AlertPending() const { return alert_pending_; }
  /// The controller's back-off: the device refreshes the neighbours of
  /// every row at or above the threshold, resets those counters, and
  /// deasserts ALERT_n. Advances time by one tRFC per serviced row.
  /// All banks must be precharged.
  void ServiceAlert();

  // -- commands (logical row addresses) ------------------------------------
  void Activate(BankId bank, RowAddr logical_row);
  void Precharge(BankId bank);
  /// Write arbitrary bytes at a column offset of the open row.
  void Write(BankId bank, RowAddr logical_row, ColAddr col,
             std::span<const std::uint8_t> bytes);
  /// Read the entire open row (full burst train).
  std::vector<std::uint8_t> ReadRow(BankId bank, RowAddr logical_row);
  /// ReadRow into caller-owned scratch (replaced, not appended): the
  /// swept test loop reads the same victim row per iteration, so the
  /// buffer's capacity is reused instead of reallocated per read.
  void ReadRow(BankId bank, RowAddr logical_row,
               std::vector<std::uint8_t>& out);

  // -- bulk testing fast path ----------------------------------------------
  /**
   * Double-sided hammer: `count` ACT/PRE pairs to each of the two
   * physical neighbours of `victim_logical`'s physical row, keeping
   * each aggressor open for `t_on`. Semantically identical to issuing
   * the 2*count ACT/PRE commands one by one (asserted by tests), but
   * runs in O(1).
   *
   * All banks must be precharged. Victims at the bank edge (physical
   * row 0 or max) are rejected, matching the paper's methodology.
   */
  void HammerDoubleSided(BankId bank, RowAddr victim_logical,
                         std::uint64_t count, Tick t_on);

  /// Single-sided variant: hammer one aggressor row (by logical addr).
  void HammerSingleSided(BankId bank, RowAddr aggressor_logical,
                         std::uint64_t count, Tick t_on);

  /**
   * Fill one row with `fill` through the fast path: semantically the
   * ACT + full write-burst train + PRE sequence (same elapsed time and
   * command counts), executed in O(1). The bank must be precharged.
   */
  void BulkInitializeRow(BankId bank, RowAddr logical_row,
                         std::uint8_t fill);

  // -- introspection -------------------------------------------------------
  const CommandCounts& counts() const { return counts_; }
  BankState StateOf(BankId bank) const;

 private:
  struct RowStore {
    std::vector<std::uint8_t> data;    ///< current (possibly corrupted)
    std::vector<std::uint8_t> parity;  ///< on-die ECC parity (if any)
    Tick last_restore = 0;
  };

  static std::uint64_t Key(BankId bank, PhysicalRow row) {
    return (static_cast<std::uint64_t>(bank) << 32) | row.value;
  }

  RowStore& StoreOf(BankId bank, PhysicalRow row);

  /// Earliest ACT issue honouring device-level tRRD_S and tFAW.
  Tick EarliestActDeviceLevel(Tick candidate);
  void RecordAct(Tick at);

  /// Apply accumulated disturbance and retention decay to the stored
  /// data, then restore the row's charge (ACT/REF semantics).
  void MaterializeAndRestore(BankId bank, PhysicalRow row);

  DeviceConfig config_;
  RowMapper mapper_;
  CellEncodingLayout encoding_;
  RetentionModel retention_;
  std::unique_ptr<ReadDisturbanceModel> model_;

  std::vector<Bank> banks_;
  std::unordered_map<std::uint64_t, RowStore> rows_;
  /// Scratch reused by MaterializeAndRestore for model flip queries.
  std::vector<BitFlip> flip_scratch_;
  /// On-die-ECC parity of a row uniformly filled with each byte value;
  /// row size is fixed per device, so BulkInitializeRow's re-encoding
  /// of identical data reduces to one lookup per fill byte.
  std::array<std::vector<std::uint8_t>, 256> fill_parity_;
  Tick now_ = 0;
  Celsius temperature_ = 50.0;
  bool ecc_enabled_ = false;
  CommandCounts counts_;

  std::deque<Tick> recent_acts_;  ///< for tFAW
  Tick last_act_any_bank_ = -1;   ///< for tRRD_S

  /// PRAC bookkeeping.
  void PracObserveAct(BankId bank, PhysicalRow row, std::uint64_t count);

  std::uint64_t prac_threshold_ = 0;
  bool alert_pending_ = false;
  std::unordered_map<std::uint64_t, std::uint64_t> prac_counters_;

  Rng powerup_rng_;
};

}  // namespace vrddram::dram

#endif  // VRDDRAM_DRAM_DEVICE_H
