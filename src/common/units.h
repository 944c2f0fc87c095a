/**
 * @file
 * Time, frequency, and energy units used throughout the suite.
 *
 * All device-level time is kept in integral picoseconds (Tick) so that
 * DRAM timing arithmetic is exact; conversions to floating point happen
 * only at reporting boundaries.
 */
#ifndef VRDDRAM_COMMON_UNITS_H
#define VRDDRAM_COMMON_UNITS_H

#include <cstdint>

namespace vrddram {

/// Integral simulation time in picoseconds.
using Tick = std::int64_t;

namespace units {

inline constexpr Tick kPicosecond = 1;
inline constexpr Tick kNanosecond = 1000;
inline constexpr Tick kMicrosecond = 1000 * kNanosecond;
inline constexpr Tick kMillisecond = 1000 * kMicrosecond;
inline constexpr Tick kSecond = 1000 * kMillisecond;

/// Convert a floating-point nanosecond quantity to ticks (rounded).
constexpr Tick FromNs(double ns) {
  return static_cast<Tick>(ns * static_cast<double>(kNanosecond) + 0.5);
}

/// Convert a floating-point microsecond quantity to ticks (rounded).
constexpr Tick FromUs(double us) {
  return static_cast<Tick>(us * static_cast<double>(kMicrosecond) + 0.5);
}

/// Convert ticks to floating-point nanoseconds.
constexpr double ToNs(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kNanosecond);
}

/// Convert ticks to floating-point microseconds.
constexpr double ToUs(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/// Convert ticks to floating-point seconds.
constexpr double ToSeconds(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace units

/// Temperature in degrees Celsius; DRAM test setpoints are coarse enough
/// that double precision is ample.
using Celsius = double;

}  // namespace vrddram

#endif  // VRDDRAM_COMMON_UNITS_H
