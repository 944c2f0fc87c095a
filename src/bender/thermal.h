/**
 * @file
 * Simulated temperature rig (§3): heater pads pressed against the
 * chips plus a PID controller (modeled after the MaxWell FT200) that
 * holds the device at a setpoint within +-0.5 degC. The plant is a
 * first-order thermal mass with loss to ambient and a small sensor
 * noise term.
 */
#ifndef VRDDRAM_BENDER_THERMAL_H
#define VRDDRAM_BENDER_THERMAL_H

#include "common/rng.h"
#include "common/units.h"
#include "dram/device.h"

namespace vrddram::bender {

/**
 * Heater + PID loop bound to a device: stepping the controller
 * advances device time (the device idles while the rig settles) and
 * continually updates the device's temperature. The rig starts at its
 * 25 degC ambient.
 */
class TemperatureController {
 public:
  explicit TemperatureController(dram::Device& device);

  void SetTarget(Celsius target);
  Celsius target() const { return target_; }
  Celsius Current() const { return plant_temp_; }

  /// Within the FT200's +-0.5 degC precision of the target.
  bool Settled() const;

  /// Run the control loop for `duration`, advancing device time.
  void Run(Tick duration);

  /**
   * Run until the temperature has stayed within +-0.5 degC of the
   * target for 2 s of continuous time; throws TransientError if not
   * settled within 600 s. Returns the time it took.
   */
  Tick SettleTo(Celsius target);

 private:
  void Step(Tick dt);

  dram::Device* device_;
  Rng rng_;

  Celsius target_ = 50.0;
  Celsius plant_temp_;
  double integral_ = 0.0;
  double last_error_ = 0.0;
  bool has_last_error_ = false;
};

}  // namespace vrddram::bender

#endif  // VRDDRAM_BENDER_THERMAL_H
