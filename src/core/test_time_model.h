/**
 * @file
 * Appendix A: analytic RDT test time and energy estimation. Commands
 * are tightly scheduled per the DDR5 timings of Table 6; the model
 * reproduces the command listings of Tables 4 (single bank) and 5
 * (16 banks interleaved) and generates the series behind Figs. 17-24.
 */
#ifndef VRDDRAM_CORE_TEST_TIME_MODEL_H
#define VRDDRAM_CORE_TEST_TIME_MODEL_H

#include <cstdint>

#include "common/table.h"
#include "dram/timing.h"

namespace vrddram::core {

struct TestCost {
  double seconds = 0.0;  ///< wall time (double: campaigns span years)
  double energy = 0.0;   ///< joules
};

class TestTimeModel {
 public:
  /// Rows are 128 bursts wide; energy is drawn by the 8 chips of a
  /// rank in lockstep (a module-level estimate) at DDR5 currents.
  explicit TestTimeModel(dram::TimingParams timing = dram::MakeDdr5_8800())
      : timing_(timing) {}

  const dram::TimingParams& timing() const { return timing_; }

  /**
   * One RDT measurement of one victim row using the double-sided
   * pattern: initialize victim + 2 aggressors, hammer `hammers` times
   * per aggressor holding each open for `t_on`, read the victim back
   * (Table 4). With `banks` > 1, the same row address is tested in
   * `banks` banks simultaneously, interleaving commands at tRRD_S /
   * tCCD_S as much as timing allows (Table 5); the cost covers all
   * `banks` rows.
   */
  TestCost MeasurementCost(std::uint64_t hammers, Tick t_on,
                           std::uint32_t banks = 1) const;

  /**
   * Campaign cost: `rows_per_bank` victim rows, each measured
   * `measurements` times, testing `banks` banks in parallel.
   */
  TestCost CampaignCost(std::uint64_t rows_per_bank,
                        std::uint64_t measurements, std::uint64_t hammers,
                        Tick t_on, std::uint32_t banks = 1) const;

  /// Table 4 (banks == 1) or Table 5 (banks > 1) command listing.
  TextTable CommandTable(std::uint64_t hammers, std::uint32_t banks) const;

 private:
  Tick InitOneRowTime(std::uint32_t banks) const;
  Tick HammerPhaseTime(std::uint64_t hammers, Tick t_on,
                       std::uint32_t banks) const;
  Tick ReadbackTime(std::uint32_t banks) const;

  dram::TimingParams timing_;
};

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_TEST_TIME_MODEL_H
