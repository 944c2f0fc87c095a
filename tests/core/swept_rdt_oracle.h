/**
 * @file
 * Test-only reference oracle for core::RdtProfiler: Alg. 1's test_loop
 * executed step by step on the device. Every hammer count of the sweep
 * grid runs one full initialize + hammer + read-and-compare iteration
 * through core/test_once_oracle.h — TestOnce (the device's bulk
 * hammer path) or TestOnceExact (every ACT/PRE issued individually) —
 * and the first count that flips is the measurement. The profiler
 * computes the same outcome from one fault-engine query per
 * measurement and advances device time by this sweep's duration in
 * closed form; tests check it against this oracle.
 */
#ifndef VRDDRAM_TESTS_CORE_SWEPT_RDT_ORACLE_H
#define VRDDRAM_TESTS_CORE_SWEPT_RDT_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bender/host.h"
#include "core/rdt_profiler.h"
#include "core/test_once_oracle.h"

namespace vrddram::oracle {

enum class SweepPath : std::uint8_t {
  kBulk,          ///< oracle::TestOnce per grid step
  kCommandLevel,  ///< oracle::TestOnceExact per grid step
};

/**
 * One swept RDT measurement of `victim` with `config`'s bank, pattern
 * and aggressor-on time: the first hammer count of the grid
 * RDT_guess/2, +RDT_guess/100, ... below 3*RDT_guess that flips a
 * bit, or core::kNoFlip.
 */
inline std::int64_t SweptMeasurement(bender::TestHost& host,
                                     const core::ProfilerConfig& config,
                                     dram::RowAddr victim,
                                     std::uint64_t rdt_guess,
                                     SweepPath path = SweepPath::kBulk) {
  const Tick t_on =
      config.t_on > 0 ? config.t_on : host.device().timing().tRAS;
  const std::uint64_t lo = std::max<std::uint64_t>(1, rdt_guess / 2);
  const std::uint64_t hi = std::max<std::uint64_t>(lo + 1, 3 * rdt_guess);
  const std::uint64_t step = std::max<std::uint64_t>(1, rdt_guess / 100);
  for (std::uint64_t hc = lo; hc < hi; hc += step) {
    const std::vector<dram::BitFlip> flips =
        (path == SweepPath::kCommandLevel)
            ? TestOnceExact(host, config.bank, victim, config.pattern, hc,
                            t_on)
            : TestOnce(host, config.bank, victim, config.pattern, hc,
                       t_on);
    if (!flips.empty()) {
      return static_cast<std::int64_t>(hc);
    }
  }
  return core::kNoFlip;
}

/// `n` successive swept measurements of the same victim.
inline std::vector<std::int64_t> SweptSeries(
    bender::TestHost& host, const core::ProfilerConfig& config,
    dram::RowAddr victim, std::uint64_t rdt_guess, std::size_t n,
    SweepPath path = SweepPath::kBulk) {
  std::vector<std::int64_t> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(SweptMeasurement(host, config, victim, rdt_guess, path));
  }
  return series;
}

}  // namespace vrddram::oracle

#endif  // VRDDRAM_TESTS_CORE_SWEPT_RDT_ORACLE_H
