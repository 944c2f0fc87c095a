#include "dram/timing.h"

#include "common/error.h"

namespace vrddram::dram {

using units::FromNs;
using units::FromUs;

std::string ToString(Standard standard) {
  switch (standard) {
    case Standard::kDdr4: return "DDR4";
    case Standard::kDdr5: return "DDR5";
    case Standard::kHbm2: return "HBM2";
  }
  throw PanicError("unknown DRAM standard");
}

TimingParams MakeDdr4_3200() {
  TimingParams t;
  t.standard = Standard::kDdr4;
  t.data_rate_mtps = 3200.0;
  t.tRCD = FromNs(13.75);
  t.tRP = FromNs(13.75);
  t.tRAS = FromNs(32.0);
  t.tRC = t.tRAS + t.tRP;
  t.tWR = FromNs(15.0);
  t.tRTP = FromNs(7.5);
  t.tCCD_S = FromNs(2.5);      // 4 nCK @ 1600 MHz clock
  t.tCCD_L = FromNs(5.0);
  t.tCCD_L_WR = FromNs(5.0);
  t.tRRD_S = FromNs(2.5);
  t.tRRD_L = FromNs(4.9);
  t.tFAW = FromNs(10.0);
  t.tREFI = FromUs(7.8);
  t.tREFW = FromUs(64000.0);   // 64 ms
  t.tRFC = FromNs(350.0);
  t.tCL = FromNs(13.75);
  t.tCWL = FromNs(10.0);
  t.tBL = FromNs(2.5);         // BL8 @ 3200 MT/s
  return t;
}

TimingParams MakeDdr5_8800() {
  // Paper Appendix A, Table 6 (JESD79-5C @ 8800 MT/s).
  TimingParams t;
  t.standard = Standard::kDdr5;
  t.data_rate_mtps = 8800.0;
  t.tRRD_S = FromNs(1.816);
  t.tCCD_S = FromNs(1.816);
  t.tCCD_L = FromNs(5.0);
  t.tCCD_L_WR = FromNs(20.0);
  t.tRCD = FromNs(14.090);
  t.tRP = FromNs(14.090);
  t.tRAS = FromNs(32.0);
  t.tRTP = FromNs(7.5);
  t.tWR = FromNs(30.0);
  t.tRC = t.tRAS + t.tRP;
  t.tRRD_L = FromNs(5.0);
  t.tFAW = FromNs(10.667);
  t.tREFI = FromUs(3.9);
  t.tREFW = FromUs(32000.0);   // 32 ms
  t.tRFC = FromNs(410.0);
  t.tCL = FromNs(14.090);
  t.tCWL = FromNs(13.0);
  t.tBL = FromNs(1.818);       // BL16 @ 8800 MT/s
  return t;
}

TimingParams MakeHbm2() {
  TimingParams t;
  t.standard = Standard::kHbm2;
  t.data_rate_mtps = 2000.0;
  t.tRCD = FromNs(14.0);
  t.tRP = FromNs(14.0);
  t.tRAS = FromNs(33.0);
  t.tRC = t.tRAS + t.tRP;
  t.tWR = FromNs(16.0);
  t.tRTP = FromNs(7.5);
  t.tCCD_S = FromNs(2.0);
  t.tCCD_L = FromNs(4.0);
  t.tCCD_L_WR = FromNs(4.0);
  t.tRRD_S = FromNs(4.0);
  t.tRRD_L = FromNs(6.0);
  t.tFAW = FromNs(16.0);
  t.tREFI = FromUs(3.9);
  t.tREFW = FromUs(32000.0);
  t.tRFC = FromNs(350.0);
  t.tCL = FromNs(14.0);
  t.tCWL = FromNs(8.0);
  t.tBL = FromNs(2.0);
  return t;
}

double CurrentParams::ActPreEnergy(Tick t_on, Tick t_rc) const {
  // IDD0 is specified for back-to-back ACT/PRE at tRC; the incremental
  // energy of one cycle is (IDD0 - IDD3N) * VDD * tRC plus active
  // standby for the time the row stays open beyond tRAS.
  const double cycle_s = units::ToSeconds(t_rc);
  const double extra_open_s =
      units::ToSeconds(t_on > t_rc ? t_on - t_rc : 0);
  const double dyn = (idd0_ma - idd3n_ma) * 1e-3 * vdd * cycle_s;
  const double open = idd3n_ma * 1e-3 * vdd * extra_open_s;
  return dyn + open;
}

double CurrentParams::BurstEnergy(Tick t_burst, bool is_write) const {
  const double idd4 = is_write ? idd4w_ma : idd4r_ma;
  return (idd4 - idd3n_ma) * 1e-3 * vdd * units::ToSeconds(t_burst);
}

double CurrentParams::BackgroundEnergy(Tick span, bool bank_active) const {
  const double idd = bank_active ? idd3n_ma : idd2n_ma;
  return idd * 1e-3 * vdd * units::ToSeconds(span);
}

}  // namespace vrddram::dram
