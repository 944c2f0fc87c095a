/**
 * @file
 * DRAM timing and current (energy) parameters, with presets for the
 * standards the paper uses: DDR4 (tested chips), DDR5 (Appendix A test
 * time/energy model and the Fig. 14 system simulations), and HBM2.
 */
#ifndef VRDDRAM_DRAM_TIMING_H
#define VRDDRAM_DRAM_TIMING_H

#include <string>

#include "common/units.h"

namespace vrddram::dram {

enum class Standard : std::uint8_t {
  kDdr4,
  kDdr5,
  kHbm2,
};

std::string ToString(Standard standard);

/**
 * Inter-command timing constraints (all in ticks = picoseconds).
 * Field names follow the JEDEC standards; the DDR5 preset carries the
 * exact Table 6 values of the paper's Appendix A.
 */
struct TimingParams {
  Standard standard = Standard::kDdr4;
  double data_rate_mtps = 3200.0;  ///< transfer rate, MT/s

  Tick tRCD = 0;       ///< ACT -> RD/WR, same bank
  Tick tRP = 0;        ///< PRE -> ACT, same bank
  Tick tRAS = 0;       ///< ACT -> PRE, same bank (charge restoration)
  Tick tRC = 0;        ///< ACT -> ACT, same bank
  Tick tWR = 0;        ///< end of write -> PRE
  Tick tRTP = 0;       ///< RD -> PRE
  Tick tCCD_S = 0;     ///< RD/WR -> RD/WR, different bank group
  Tick tCCD_L = 0;     ///< RD -> RD, same bank group
  Tick tCCD_L_WR = 0;  ///< WR -> WR, same bank group
  Tick tRRD_S = 0;     ///< ACT -> ACT, different bank group
  Tick tRRD_L = 0;     ///< ACT -> ACT, same bank group
  Tick tFAW = 0;       ///< rolling four-activate window
  Tick tREFI = 0;      ///< average refresh command interval
  Tick tREFW = 0;      ///< refresh window (retention guarantee)
  Tick tRFC = 0;       ///< refresh cycle time
  Tick tCL = 0;        ///< read CAS latency
  Tick tCWL = 0;       ///< write CAS latency
  Tick tBL = 0;        ///< burst duration on the data bus

  /// Maximum time a row may stay open: 9 x tREFI per DDR4/HBM2
  /// standards (§5, "Test Parameters").
  Tick MaxRowOpenTime() const { return 9 * tREFI; }
};

/// DDR4-3200 speed-bin timings (JESD79-4C).
TimingParams MakeDdr4_3200();

/// DDR5-8800 timings; Table 6 of the paper's Appendix A.
TimingParams MakeDdr5_8800();

/// HBM2 timings (JESD235D, 2 Gbps pin rate).
TimingParams MakeHbm2();

/**
 * Current-draw model used for Appendix A energy estimation, in the
 * style of datasheet IDD values (the paper uses the currents of the
 * Micron 16Gb DDR5 addendum [243]).
 */
struct CurrentParams {
  double vdd = 1.1;          ///< supply voltage, volts
  double idd0_ma = 142.0;    ///< ACT-PRE cycling current, one bank
  double idd2n_ma = 61.0;    ///< precharge standby
  double idd3n_ma = 87.0;    ///< active standby
  double idd4r_ma = 440.0;   ///< burst read
  double idd4w_ma = 428.0;   ///< burst write

  /// Energy (joules) for one ACT+PRE pair held open for t_on.
  double ActPreEnergy(Tick t_on, Tick t_rc) const;
  /// Energy (joules) for one read or write burst of the given length.
  double BurstEnergy(Tick t_burst, bool is_write) const;
  /// Background energy for a span of wall time.
  double BackgroundEnergy(Tick span, bool bank_active) const;
};

}  // namespace vrddram::dram

#endif  // VRDDRAM_DRAM_TIMING_H
