#include "dram/device.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "common/faultinject.h"
#include "common/sorted.h"
#include "ecc/on_die.h"

namespace vrddram::dram {

namespace {

/// Bytes transferred by one burst at module level (BL8 x 64-bit bus).
constexpr std::uint32_t kBurstBytes = 64;

}  // namespace

Device::Device(DeviceConfig config,
               std::unique_ptr<ReadDisturbanceModel> model)
    : config_(std::move(config)),
      mapper_(config_.row_mapping, config_.org.rows_per_bank),
      encoding_(MixSeed(config_.seed, 0xec0d), config_.anti_cell_fraction),
      retention_(MixSeed(config_.seed, 0x4e7e), config_.retention,
                 config_.org.row_bytes),
      model_(model ? std::move(model)
                   : std::make_unique<NullDisturbanceModel>()),
      ecc_enabled_(config_.has_on_die_ecc),
      powerup_rng_(MixSeed(config_.seed, 0xb007)) {
  banks_.reserve(config_.org.num_banks);
  for (std::uint32_t b = 0; b < config_.org.num_banks; ++b) {
    banks_.emplace_back(&config_.timing);
  }
}

void Device::Sleep(Tick duration) {
  VRD_FATAL_IF(duration < 0, "cannot sleep a negative duration");
  now_ += duration;
}

void Device::SetOnDieEccEnabled(bool enabled) {
  VRD_FATAL_IF(enabled && !config_.has_on_die_ecc,
               "device has no on-die ECC");
  ecc_enabled_ = enabled && config_.has_on_die_ecc;
}

BankState Device::StateOf(BankId bank) const {
  VRD_FATAL_IF(!config_.org.ValidBank(bank), "bank out of range");
  return banks_[bank].state();
}

Device::RowStore& Device::StoreOf(BankId bank, PhysicalRow row) {
  const std::uint64_t key = Key(bank, row);
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    RowStore store;
    store.data.resize(config_.org.row_bytes);
    // Power-up content is effectively random and device-specific.
    Rng rng(MixSeed(config_.seed, bank, row.value, 0xda7a));
    for (auto& byte : store.data) {
      byte = static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    if (config_.has_on_die_ecc) {
      store.parity = ecc::OnDieSec::EncodeParity(store.data);
    }
    store.last_restore = now_;
    it = rows_.emplace(key, std::move(store)).first;
  }
  return it->second;
}

Tick Device::EarliestActDeviceLevel(Tick candidate) {
  Tick at = candidate;
  if (last_act_any_bank_ >= 0) {
    at = std::max(at, last_act_any_bank_ + config_.timing.tRRD_S);
  }
  if (recent_acts_.size() >= 4) {
    at = std::max(at, recent_acts_.front() + config_.timing.tFAW);
  }
  return at;
}

void Device::RecordAct(Tick at) {
  last_act_any_bank_ = at;
  recent_acts_.push_back(at);
  while (recent_acts_.size() > 4) {
    recent_acts_.pop_front();
  }
}

void Device::MaterializeAndRestore(BankId bank, PhysicalRow row) {
  RowStore& store = StoreOf(bank, row);

  VictimContext ctx;
  ctx.bank = bank;
  ctx.row = row;
  ctx.data = store.data;
  ctx.encoding = &encoding_;
  ctx.temperature = temperature_;
  ctx.now = now_;
  model_->Evaluate(ctx, flip_scratch_);
  for (const BitFlip& flip : flip_scratch_) {
    VRD_ASSERT(flip.byte_offset < store.data.size());
    store.data[flip.byte_offset] ^=
        static_cast<std::uint8_t>(1u << flip.bit);
  }

  const Tick since = now_ - store.last_restore;
  for (const BitFlip& flip : retention_.DecayedBits(
           bank, row, store.data, encoding_, since, temperature_)) {
    // A decayed cell reads back the discharged value; since only
    // charged cells can decay, this is a flip of the stored bit.
    store.data[flip.byte_offset] ^=
        static_cast<std::uint8_t>(1u << flip.bit);
  }

  model_->OnRestore(bank, row, now_);
  store.last_restore = now_;
}

void Device::SetPracThreshold(std::uint64_t threshold) {
  VRD_FATAL_IF(!config_.has_prac, "device has no PRAC support");
  prac_threshold_ = threshold;
}

void Device::PracObserveAct(BankId bank, PhysicalRow row,
                            std::uint64_t count) {
  if (!config_.has_prac || prac_threshold_ == 0) {
    return;
  }
  std::uint64_t& counter = prac_counters_[Key(bank, row)];
  counter += count;
  if (counter >= prac_threshold_) {
    alert_pending_ = true;
  }
}

void Device::ServiceAlert() {
  VRD_FATAL_IF(!config_.has_prac, "device has no PRAC support");
  for (BankId bank = 0; bank < config_.org.num_banks; ++bank) {
    VRD_FATAL_IF(banks_[bank].state() != BankState::kIdle,
                 "back-off requires all banks precharged");
  }
  // Service rows in (bank, row) key order: each serviced row advances
  // now_, so hash-order iteration would make restore timestamps — and
  // through them retention state — depend on the map's growth history.
  for (const auto& [key, count] : SortedByKey(prac_counters_)) {
    if (count < prac_threshold_ || prac_threshold_ == 0) {
      continue;
    }
    const auto bank = static_cast<BankId>(key >> 32);
    const auto base = static_cast<RowAddr>(key & 0xffffffffu);
    for (std::int64_t d = -2; d <= 2; ++d) {
      const std::int64_t neighbour = static_cast<std::int64_t>(base) + d;
      if (d == 0 || neighbour < 0 ||
          neighbour > config_.org.LargestRowAddress()) {
        continue;
      }
      MaterializeAndRestore(
          bank, PhysicalRow{static_cast<RowAddr>(neighbour)});
    }
    prac_counters_[key] = 0;
    now_ += config_.timing.tRFC;
  }
  alert_pending_ = false;
}

void Device::Activate(BankId bank, RowAddr logical_row) {
  VRD_FATAL_IF(!config_.org.ValidBank(bank), "bank out of range");
  VRD_FATAL_IF(!config_.org.ValidRow(logical_row), "row out of range");
  const PhysicalRow phys = mapper_.ToPhysical(logical_row);

  Tick at = banks_[bank].EarliestActivate(now_);
  at = EarliestActDeviceLevel(at);
  banks_[bank].Activate(phys, at);
  now_ = at;
  RecordAct(at);
  ++counts_.act;

  // Opening a row senses and restores it: pending disturbance and
  // retention corruption materializes into the array now.
  MaterializeAndRestore(bank, phys);
  PracObserveAct(bank, phys, 1);
}

void Device::Precharge(BankId bank) {
  VRD_FATAL_IF(!config_.org.ValidBank(bank), "bank out of range");
  const PhysicalRow open = banks_[bank].open_row();
  const Tick at = banks_[bank].EarliestPrecharge(now_);
  const Tick open_time = banks_[bank].Precharge(at);
  now_ = at;
  ++counts_.pre;

  // The closing row acted as an aggressor on its neighbours for the
  // whole time it was open.
  model_->OnActivations(bank, open, 1, open_time, now_, temperature_,
                        StoreOf(bank, open).data);
}

void Device::Write(BankId bank, RowAddr logical_row, ColAddr col,
                   std::span<const std::uint8_t> bytes) {
  VRD_FATAL_IF(!config_.org.ValidBank(bank), "bank out of range");
  const PhysicalRow phys = mapper_.ToPhysical(logical_row);
  VRD_FATAL_IF(banks_[bank].state() != BankState::kActive ||
                   banks_[bank].open_row() != phys,
               "WR to a row that is not open");
  VRD_FATAL_IF(col + bytes.size() > config_.org.row_bytes,
               "write beyond row end");
  VRD_FATAL_IF(bytes.empty(), "empty write");

  const std::size_t bursts = (bytes.size() + kBurstBytes - 1) / kBurstBytes;
  for (std::size_t i = 0; i < bursts; ++i) {
    const Tick at = banks_[bank].EarliestWrite(now_);
    const Tick data_end = banks_[bank].Write(at);
    now_ = (i + 1 == bursts) ? data_end : at;
    ++counts_.wr;
  }

  RowStore& store = StoreOf(bank, phys);
  std::copy(bytes.begin(), bytes.end(), store.data.begin() + col);
  if (config_.has_on_die_ecc) {
    // The on-die engine re-encodes written data transparently.
    store.parity = ecc::OnDieSec::EncodeParity(store.data);
  }
}

std::vector<std::uint8_t> Device::ReadRow(BankId bank,
                                          RowAddr logical_row) {
  std::vector<std::uint8_t> out;
  ReadRow(bank, logical_row, out);
  return out;
}

void Device::ReadRow(BankId bank, RowAddr logical_row,
                     std::vector<std::uint8_t>& out) {
  VRD_FATAL_IF(!config_.org.ValidBank(bank), "bank out of range");
  const PhysicalRow phys = mapper_.ToPhysical(logical_row);
  VRD_FATAL_IF(banks_[bank].state() != BankState::kActive ||
                   banks_[bank].open_row() != phys,
               "RD from a row that is not open");

  const std::size_t bursts = config_.org.row_bytes / kBurstBytes;
  Tick data_end = now_;
  for (std::size_t i = 0; i < bursts; ++i) {
    const Tick at = banks_[bank].EarliestRead(now_);
    data_end = banks_[bank].Read(at);
    now_ = at;
    ++counts_.rd;
  }
  now_ = data_end;

  RowStore& store = StoreOf(bank, phys);
  out.assign(store.data.begin(), store.data.end());
  if (ecc_enabled_) {
    // On-die SEC: decode each 64-bit word against the stored parity;
    // single-bit (e.g. read-disturbance) errors are corrected on the
    // way out, which is exactly why §3.1 disables this engine during
    // characterization.
    ecc::OnDieSec::DecodeInPlace(out, store.parity);
  }
  if (fi::ShouldFire("dram.device.readout")) {
    // A stuck-at-1 readout pin downstream of the on-die ECC engine:
    // bit 0 of the first byte reads high regardless of the stored
    // value. The store itself is untouched.
    out[0] |= 0x01;
  }
}

void Device::HammerDoubleSided(BankId bank, RowAddr victim_logical,
                               std::uint64_t count, Tick t_on) {
  VRD_FATAL_IF(!config_.org.ValidBank(bank), "bank out of range");
  VRD_FATAL_IF(banks_[bank].state() != BankState::kIdle,
               "bulk hammer requires the bank precharged");
  VRD_FATAL_IF(t_on < config_.timing.tRAS,
               "tAggOn below the minimum tRAS");
  VRD_FATAL_IF(t_on > config_.timing.MaxRowOpenTime(),
               "tAggOn above 9 x tREFI (standard limit)");
  const PhysicalRow victim = mapper_.ToPhysical(victim_logical);
  VRD_FATAL_IF(victim.value == 0 ||
                   victim.value >= config_.org.LargestRowAddress(),
               "victim at the bank edge has no double-sided aggressors");
  if (count == 0) {
    return;
  }

  const PhysicalRow aggressors[2] = {PhysicalRow{victim.value - 1},
                                     PhysicalRow{victim.value + 1}};
  const Tick cycle = t_on + config_.timing.tRP;
  const Tick start = banks_[bank].EarliestActivate(now_);
  const Tick end = start + static_cast<Tick>(2 * count) * cycle;

  for (const PhysicalRow& aggressor : aggressors) {
    model_->OnActivations(bank, aggressor, count, t_on, end, temperature_,
                          StoreOf(bank, aggressor).data);
    PracObserveAct(bank, aggressor, count);
    // Each aggressor is restored every cycle; its own accumulated dose
    // never exceeds a couple of distant activations, so clear it.
    model_->OnRestore(bank, aggressor, end);
    StoreOf(bank, aggressor).last_restore = end;
  }

  counts_.act += 2 * count;
  counts_.pre += 2 * count;
  now_ = end;
  RecordAct(end - config_.timing.tRP);
  banks_[bank].SyncAfterBulk(end - cycle, end - config_.timing.tRP);
}

void Device::HammerSingleSided(BankId bank, RowAddr aggressor_logical,
                               std::uint64_t count, Tick t_on) {
  VRD_FATAL_IF(!config_.org.ValidBank(bank), "bank out of range");
  VRD_FATAL_IF(banks_[bank].state() != BankState::kIdle,
               "bulk hammer requires the bank precharged");
  VRD_FATAL_IF(t_on < config_.timing.tRAS,
               "tAggOn below the minimum tRAS");
  VRD_FATAL_IF(t_on > config_.timing.MaxRowOpenTime(),
               "tAggOn above 9 x tREFI (standard limit)");
  const PhysicalRow aggressor = mapper_.ToPhysical(aggressor_logical);
  if (count == 0) {
    return;
  }

  const Tick cycle = t_on + config_.timing.tRP;
  const Tick start = banks_[bank].EarliestActivate(now_);
  const Tick end = start + static_cast<Tick>(count) * cycle;

  model_->OnActivations(bank, aggressor, count, t_on, end, temperature_,
                        StoreOf(bank, aggressor).data);
  PracObserveAct(bank, aggressor, count);
  model_->OnRestore(bank, aggressor, end);
  StoreOf(bank, aggressor).last_restore = end;

  counts_.act += count;
  counts_.pre += count;
  now_ = end;
  RecordAct(end - config_.timing.tRP);
  banks_[bank].SyncAfterBulk(end - cycle, end - config_.timing.tRP);
}

void Device::BulkInitializeRow(BankId bank, RowAddr logical_row,
                               std::uint8_t fill) {
  VRD_FATAL_IF(!config_.org.ValidBank(bank), "bank out of range");
  VRD_FATAL_IF(!config_.org.ValidRow(logical_row), "row out of range");
  VRD_FATAL_IF(banks_[bank].state() != BankState::kIdle,
               "bulk init requires the bank precharged");
  const PhysicalRow phys = mapper_.ToPhysical(logical_row);
  const TimingParams& t = config_.timing;

  Tick act_at = banks_[bank].EarliestActivate(now_);
  act_at = EarliestActDeviceLevel(act_at);
  RecordAct(act_at);
  ++counts_.act;
  now_ = act_at;

  // Opening the row materializes pending corruption, then the write
  // train overwrites the data.
  MaterializeAndRestore(bank, phys);
  PracObserveAct(bank, phys, 1);

  const std::uint64_t bursts = config_.org.row_bytes / kBurstBytes;
  const Tick first_wr = act_at + t.tRCD;
  const Tick last_wr =
      first_wr + static_cast<Tick>(bursts - 1) * t.tCCD_L_WR;
  const Tick data_end = last_wr + t.tCWL + t.tBL;
  const Tick pre_at = std::max(data_end + t.tWR, act_at + t.tRAS);
  counts_.wr += bursts;
  ++counts_.pre;

  RowStore& store = StoreOf(bank, phys);
  std::fill(store.data.begin(), store.data.end(), fill);
  if (config_.has_on_die_ecc) {
    // A uniformly filled row's parity depends only on (fill byte, row
    // size); memoize it so per-iteration pattern re-initialization
    // stops re-encoding identical data.
    std::vector<std::uint8_t>& memo = fill_parity_[fill];
    if (memo.empty()) {
      memo = ecc::OnDieSec::EncodeParity(store.data);
    }
    store.parity = memo;
  }

  now_ = pre_at;
  banks_[bank].SyncAfterBulk(act_at, pre_at);
  // The row was open for pre_at - act_at: it aggressed its neighbours
  // for that long, exactly as the per-command path reports via PRE.
  model_->OnActivations(bank, phys, 1, pre_at - act_at, now_, temperature_,
                        store.data);
}

}  // namespace vrddram::dram
