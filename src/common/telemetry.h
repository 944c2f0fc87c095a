/**
 * @file
 * Wall-clock telemetry, quarantined.
 *
 * The determinism contract (DESIGN.md §6) bans wall-clock reads from
 * result-producing code: a timestamp that leaks into a measurement or
 * a merge order breaks bit-identical reproduction. Progress and
 * throughput reporting still needs real elapsed time, so the two
 * legitimate clock reads in the suite live here — behind a type whose
 * output can only ever feed human-facing telemetry — and carry the
 * `vrdlint: allow(wall-clock)` annotation that exempts them from the
 * `banned-api` lint rule. Code that needs "how long did this take"
 * for a log line takes a Stopwatch; code that needs time as an input
 * to a computation is wrong by construction.
 */
#ifndef VRDDRAM_COMMON_TELEMETRY_H
#define VRDDRAM_COMMON_TELEMETRY_H

#include <chrono>

namespace vrddram {

/**
 * Measures real elapsed time for progress/throughput report lines.
 * Starts at construction; Seconds() may be read repeatedly.
 */
class Stopwatch {
 public:
  Stopwatch()
      : start_(std::chrono::steady_clock::now()) {  // vrdlint: allow(wall-clock)
  }

  /// Elapsed wall time since construction.
  double Seconds() const {
    const auto now =
        std::chrono::steady_clock::now();  // vrdlint: allow(wall-clock)
    return std::chrono::duration<double>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vrddram

#endif  // VRDDRAM_COMMON_TELEMETRY_H
