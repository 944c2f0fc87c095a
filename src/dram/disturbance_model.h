/**
 * @file
 * Interface between the DRAM device model and a read-disturbance fault
 * engine. The engine sees physical-space activations and decides which
 * victim bits flip; the device stores data and applies the flips.
 *
 * The trap-based engine that reproduces the paper's VRD statistics
 * lives in src/vrd (vrd::TrapFaultEngine); the device model is agnostic
 * to the implementation so tests can plug in deterministic fakes.
 */
#ifndef VRDDRAM_DRAM_DISTURBANCE_MODEL_H
#define VRDDRAM_DRAM_DISTURBANCE_MODEL_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "dram/types.h"

namespace vrddram::dram {

class CellEncodingLayout;

/// Everything a fault engine may consult when deciding victim flips.
struct VictimContext {
  BankId bank = 0;
  PhysicalRow row{0};
  /// Current stored bytes of the victim row.
  std::span<const std::uint8_t> data;
  /// True-/anti-cell layout of the device (never null).
  const CellEncodingLayout* encoding = nullptr;
  Celsius temperature = 50.0;
  Tick now = 0;
};

/**
 * Read-disturbance fault engine interface.
 *
 * Lifecycle per victim row: OnRestore() whenever the row's charge is
 * restored (write, activation of the row itself, refresh) clears the
 * accumulated disturbance; OnActivations() accumulates aggressor dose
 * on the rows physically adjacent to the aggressor; Evaluate() reports
 * the set of bits that have flipped since the last restore.
 */
class ReadDisturbanceModel {
 public:
  virtual ~ReadDisturbanceModel() = default;

  /**
   * `count` activations of the aggressor row, each keeping the row
   * open for `t_on`, finishing at device time `now`. The engine is
   * responsible for spreading the dose to the aggressor's physical
   * neighbours. `aggressor_data` is the content of the aggressor row
   * during the activations (bitline coupling depends on it); it may be
   * empty, in which case worst-case coupling is assumed.
   */
  virtual void OnActivations(BankId bank, PhysicalRow aggressor,
                             std::uint64_t count, Tick t_on, Tick now,
                             Celsius temperature,
                             std::span<const std::uint8_t> aggressor_data)
      = 0;

  /// The row's charge was restored; clear its accumulated dose.
  virtual void OnRestore(BankId bank, PhysicalRow row, Tick now) = 0;

  /**
   * Bits of the victim row that have flipped since the last restore,
   * written into caller-owned scratch (cleared first). The out-param
   * keeps the device's materialization path allocation-free: the
   * device reuses one buffer across every row it opens.
   */
  virtual void Evaluate(const VictimContext& ctx,
                        std::vector<BitFlip>& out) = 0;
};

/// Engine that never flips anything (default for plain devices).
class NullDisturbanceModel final : public ReadDisturbanceModel {
 public:
  void OnActivations(BankId, PhysicalRow, std::uint64_t, Tick, Tick,
                     Celsius, std::span<const std::uint8_t>) override {}
  void OnRestore(BankId, PhysicalRow, Tick) override {}
  void Evaluate(const VictimContext&,
                std::vector<BitFlip>& out) override {
    out.clear();
  }
};

}  // namespace vrddram::dram

#endif  // VRDDRAM_DRAM_DISTURBANCE_MODEL_H
