#include "core/test_time_model.h"

#include <algorithm>

#include "common/error.h"

namespace vrddram::core {

namespace {

/// Write or read bursts per row.
constexpr std::uint32_t kBurstsPerRow = 128;
/// Chips operated in lockstep; every command's energy is drawn by all
/// of them (a module-level estimate).
constexpr std::uint32_t kChipsPerRank = 8;
/// DDR5 currents from the Micron 16Gb addendum (scaled to one chip).
constexpr dram::CurrentParams kCurrents{};

}  // namespace

Tick TestTimeModel::InitOneRowTime(std::uint32_t banks) const {
  // Table 4 (one bank): ACT (tRCD), 127 WRITEs at tCCD_L_WR, final
  // write recovery tWR, PRE (tRP).
  // Table 5 (N banks): N ACTs at tRRD_S, then N*128 WRITEs at tCCD_S.
  if (banks == 1) {
    return timing_.tRCD +
           static_cast<Tick>(kBurstsPerRow - 1) * timing_.tCCD_L_WR +
           timing_.tWR + timing_.tRP;
  }
  const Tick acts = static_cast<Tick>(banks) * timing_.tRRD_S;
  const Tick writes =
      static_cast<Tick>(static_cast<std::uint64_t>(banks) *
                        kBurstsPerRow - 1) * timing_.tCCD_S;
  return acts + writes + timing_.tWR + timing_.tRP;
}

Tick TestTimeModel::HammerPhaseTime(std::uint64_t hammers, Tick t_on,
                                    std::uint32_t banks) const {
  // One hammer = activating both aggressor row addresses once. With N
  // banks, the N same-address ACTs are pipelined at tRRD_S, so each
  // aggressor phase lasts max(tAggOn, tRRD_S * N) before the PREs
  // (Table 5's Max(tAggOn, tRRD_S * 16) row).
  const Tick on_phase =
      std::max(t_on, static_cast<Tick>(banks) * timing_.tRRD_S);
  const Tick per_hammer = 2 * (on_phase + timing_.tRP);
  return static_cast<Tick>(hammers) * per_hammer;
}

Tick TestTimeModel::ReadbackTime(std::uint32_t banks) const {
  if (banks == 1) {
    return timing_.tRCD +
           static_cast<Tick>(kBurstsPerRow - 1) * timing_.tCCD_L +
           timing_.tRTP + timing_.tRP;
  }
  const Tick acts = static_cast<Tick>(banks) * timing_.tRRD_S;
  const Tick reads =
      static_cast<Tick>(static_cast<std::uint64_t>(banks) *
                        kBurstsPerRow - 1) * timing_.tCCD_S;
  return acts + reads + timing_.tRTP + timing_.tRP;
}

TestCost TestTimeModel::MeasurementCost(std::uint64_t hammers, Tick t_on,
                                        std::uint32_t banks) const {
  VRD_FATAL_IF(banks == 0, "at least one bank");
  VRD_FATAL_IF(t_on < timing_.tRAS, "tAggOn below the minimum tRAS");

  TestCost cost;
  const Tick init = 3 * InitOneRowTime(banks);  // victim + 2 aggressors
  const Tick hammer = HammerPhaseTime(hammers, t_on, banks);
  const Tick read = ReadbackTime(banks);
  const Tick total_ticks = init + hammer + read;
  cost.seconds = units::ToSeconds(total_ticks);

  // Energy: per-bank dynamic energy plus background for the duration.
  const double n = static_cast<double>(banks);
  double energy = 0.0;
  // 3 initialization ACT/PRE pairs per bank.
  energy += 3.0 * n *
            kCurrents.ActPreEnergy(timing_.tRC, timing_.tRC);
  // Many-bank hammering cannot draw the full per-bank ACT current
  // simultaneously: the four-activate window (tFAW) and the chip's
  // power budget cap the concurrency at ~4 banks' worth.
  const double concurrency_derate =
      std::min(n, 4.0) / n;
  energy += 2.0 * static_cast<double>(hammers) * n *
            concurrency_derate *
            kCurrents.ActPreEnergy(std::max(t_on, timing_.tRAS),
                                   timing_.tRC);
  energy += 1.0 * n * kCurrents.ActPreEnergy(timing_.tRC, timing_.tRC);
  // Burst energy: full row written 3x and read once per bank.
  const Tick wr_burst = timing_.tBL;
  energy += 3.0 * n * static_cast<double>(kBurstsPerRow) *
            kCurrents.BurstEnergy(wr_burst, /*is_write=*/true);
  energy += 1.0 * n * static_cast<double>(kBurstsPerRow) *
            kCurrents.BurstEnergy(wr_burst, /*is_write=*/false);
  // Background for the whole measurement (device otherwise idle).
  energy += kCurrents.BackgroundEnergy(total_ticks, /*bank_active=*/true);
  // Every chip of the rank executes every command in lockstep.
  cost.energy = energy * static_cast<double>(kChipsPerRank);
  return cost;
}

TestCost TestTimeModel::CampaignCost(std::uint64_t rows_per_bank,
                                     std::uint64_t measurements,
                                     std::uint64_t hammers, Tick t_on,
                                     std::uint32_t banks) const {
  const TestCost one = MeasurementCost(hammers, t_on, banks);
  TestCost total;
  const auto repetitions =
      static_cast<double>(rows_per_bank) *
      static_cast<double>(measurements);
  total.seconds = one.seconds * repetitions;
  total.energy = one.energy * repetitions;
  return total;
}

TextTable TestTimeModel::CommandTable(std::uint64_t hammers,
                                      std::uint32_t banks) const {
  TextTable table({"Command", "Address", "Timing", "# of Commands"});
  const bool multi = banks > 1;
  const std::string acts = multi ? Cell(std::uint64_t{banks}) : "1";
  const std::string writes =
      multi ? Cell(static_cast<std::uint64_t>(banks) * kBurstsPerRow)
            : Cell(static_cast<std::uint64_t>(kBurstsPerRow - 1));
  const std::string act_timing = multi ? "tRRD_S" : "tRCD";
  const std::string wr_timing = multi ? "tCCD_S" : "tCCD_L_WR";

  for (const char* role : {"Victim", "Aggressor 1", "Aggressor 2"}) {
    table.AddRow({"ACT", role, act_timing, acts});
    table.AddRow({"WRITE", role, wr_timing, writes});
    table.AddRow({"WRITE", role, "tWR", "1"});
    table.AddRow({"PRE", role, "tRP", "1"});
  }
  const std::string on_phase =
      multi ? "Max(tAggOn, tRRD_S*" + Cell(std::uint64_t{banks}) + ")"
            : "tAggOn";
  table.AddRow({"ACT", "Aggressor 1", on_phase, Cell(hammers)});
  table.AddRow({"PRE", "Aggressor 1", "tRP", Cell(hammers)});
  table.AddRow({"ACT", "Aggressor 2", on_phase, Cell(hammers)});
  table.AddRow({"PRE", "Aggressor 2", "tRP", Cell(hammers)});
  table.AddRow({"ACT", "Victim", multi ? "tRRD_S" : "tRCD", acts});
  table.AddRow({"READ", "Victim", multi ? "tCCD_S" : "tCCD_L", writes});
  table.AddRow({"READ", "Victim", "tRTP", "1"});
  return table;
}

}  // namespace vrddram::core
