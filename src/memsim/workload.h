/**
 * @file
 * Synthetic multi-core memory workloads standing in for the paper's
 * SPEC/TPC/MediaBench/YCSB mixes (§6.3). Each core is a closed-loop
 * request generator characterized by memory intensity (LLC MPKI) and
 * row-buffer locality; the 15 four-core mixes are seeded variations
 * spanning the highly-memory-intensive regime (MPKI >= 20).
 */
#ifndef VRDDRAM_MEMSIM_WORKLOAD_H
#define VRDDRAM_MEMSIM_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace vrddram::memsim {

/// Static behaviour of one core's workload.
struct CoreProfile {
  std::string name;
  double mpki = 30.0;           ///< LLC misses per kilo-instruction
  double row_locality = 0.5;    ///< P(next access hits the open row)
  double write_fraction = 0.2;
  std::uint32_t hot_rows = 64;  ///< size of the row working set
  std::uint32_t hot_banks = 8;  ///< banks the working set spans
};

/// A four-core mix (Fig. 14 uses 15 of them).
struct WorkloadMix {
  std::string name;
  std::vector<CoreProfile> cores;
};

/// Average core-time between one core's requests (from its MPKI and
/// the core's IPC).
Tick ThinkTime(const CoreProfile& profile);

/// The 15 four-core highly-memory-intensive mixes.
std::vector<WorkloadMix> MakeHighMemoryIntensityMixes(
    std::uint64_t seed = 42);

/// One memory request produced by a core generator.
struct Request {
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  bool is_write = false;
};

/**
 * Closed-loop generator: produces the address stream of one core.
 * Issue pacing is handled by the system model; the generator only
 * decides *where* each access goes.
 */
class CoreGenerator {
 public:
  CoreGenerator(const CoreProfile& profile, std::uint32_t num_banks,
                std::uint32_t rows_per_bank, std::uint64_t seed);

  Request Next();

 private:
  CoreProfile profile_;
  std::uint32_t num_banks_;
  std::uint32_t rows_per_bank_;
  Rng rng_;
  std::uint32_t current_bank_ = 0;
  std::uint32_t current_row_ = 0;
  std::vector<std::uint32_t> hot_rows_;
  std::vector<std::uint32_t> hot_banks_;
};

}  // namespace vrddram::memsim

#endif  // VRDDRAM_MEMSIM_WORKLOAD_H
