#include "bender/thermal.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/faultinject.h"

namespace vrddram::bender {

namespace {

constexpr Tick kStep = 20 * units::kMillisecond;
/// SettleTo's in-band hold and its give-up time.
constexpr Tick kSettleHold = 2 * units::kSecond;
constexpr Tick kSettleTimeout = 600 * units::kSecond;
/// Sensor-noise stream seed.
constexpr std::uint64_t kSeed = 0xf7200;

// The plant: a first-order thermal mass with loss to ambient.
constexpr Celsius kAmbient = 25.0;
constexpr double kThermalMassJPerC = 40.0;  ///< heat capacity, DIMM + pads
constexpr double kLossWPerC = 0.8;          ///< conduction/convection loss
constexpr double kHeaterMaxW = 60.0;        ///< heater pad power limit
constexpr double kSensorNoiseC = 0.05;      ///< thermocouple noise, 1 sigma

// PID gains.
constexpr double kKp = 8.0;
constexpr double kKi = 0.8;
constexpr double kKd = 4.0;

}  // namespace

TemperatureController::TemperatureController(dram::Device& device)
    : device_(&device), rng_(kSeed), plant_temp_(kAmbient) {
  device_->SetTemperature(plant_temp_);
}

void TemperatureController::SetTarget(Celsius target) {
  VRD_FATAL_IF(target < kAmbient, "heater pads cannot cool below ambient");
  VRD_FATAL_IF(target > 120.0, "target beyond the rig's safe range");
  target_ = target;
  integral_ = 0.0;
  has_last_error_ = false;
}

bool TemperatureController::Settled() const {
  return std::abs(plant_temp_ - target_) <= 0.5;
}

void TemperatureController::Step(Tick dt) {
  if (fi::ShouldFire("bender.thermal.sensor")) {
    throw TransientError("thermal rig: PID sensor dropout (injected)");
  }
  const double dt_s = units::ToSeconds(dt);
  const double sensed = plant_temp_ + rng_.NextGaussian(0.0, kSensorNoiseC);
  const double error = target_ - sensed;

  integral_ += error * dt_s;
  // Anti-windup: bound the integral to what the heater can act on.
  const double integral_cap = kHeaterMaxW / kKi;
  integral_ = std::clamp(integral_, -integral_cap, integral_cap);

  const double derivative =
      has_last_error_ ? (error - last_error_) / dt_s : 0.0;
  last_error_ = error;
  has_last_error_ = true;

  double power = kKp * error + kKi * integral_ + kKd * derivative;
  power = std::clamp(power, 0.0, kHeaterMaxW);

  const double loss = kLossWPerC * (plant_temp_ - kAmbient);
  plant_temp_ += (power - loss) * dt_s / kThermalMassJPerC;

  device_->Sleep(dt);
  device_->SetTemperature(plant_temp_);
}

void TemperatureController::Run(Tick duration) {
  Tick remaining = duration;
  while (remaining > 0) {
    const Tick dt = std::min(remaining, kStep);
    Step(dt);
    remaining -= dt;
  }
}

Tick TemperatureController::SettleTo(Celsius target) {
  if (fi::ShouldFire("bender.thermal.settle")) {
    throw TransientError("thermal rig: settle timeout (injected)");
  }
  SetTarget(target);
  Tick elapsed = 0;
  Tick in_band = 0;
  while (elapsed < kSettleTimeout) {
    Step(kStep);
    elapsed += kStep;
    if (Settled()) {
      in_band += kStep;
      if (in_band >= kSettleHold) {
        return elapsed;
      }
    } else {
      in_band = 0;
    }
  }
  // A settle timeout is a rig condition, not a caller mistake: a retry
  // with a freshly built shard can clear it, so it is retryable.
  throw TransientError(
      "temperature rig failed to settle within the timeout");
}

}  // namespace vrddram::bender
