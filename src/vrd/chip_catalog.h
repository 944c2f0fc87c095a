/**
 * @file
 * The population of devices under test: the 21 DDR4 modules and 4 HBM2
 * chips of the paper's Table 1. Each catalog entry carries the device
 * geometry/timing and a fault profile calibrated so the population
 * reproduces the paper's per-module statistics (Table 7): minimum
 * observed RDT at tAggOn = tRAS and tREFI, and the expected normalized
 * minimum RDT bands per manufacturer / density / die revision.
 */
#ifndef VRDDRAM_VRD_CHIP_CATALOG_H
#define VRDDRAM_VRD_CHIP_CATALOG_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dram/device.h"
#include "vrd/fault_profile.h"
#include "vrd/trap_engine.h"

namespace vrddram::vrd {

enum class Manufacturer : std::uint8_t {
  kMfrH,  ///< SK Hynix
  kMfrM,  ///< Micron
  kMfrS,  ///< Samsung
};

std::string ToString(Manufacturer mfr);

/// Static facts about one tested device (Table 1 row).
struct TestedChipSpec {
  std::string name;        ///< "H0".."H6", "M0".."M6", "S0".."S6",
                           ///< "Chip0".."Chip3"
  Manufacturer mfr = Manufacturer::kMfrH;
  dram::Standard standard = dram::Standard::kDdr4;
  std::uint32_t density_gbit = 8;
  char die_rev = '?';      ///< '?' when unknown (N/A in Table 1)
  std::uint32_t dq_bits = 8;
  std::uint32_t chips_per_rank = 8;
  std::string date_code;   ///< "ww-yy" or "N/A"
};

/// Everything needed to instantiate one device under test.
struct TestedChip {
  TestedChipSpec spec;
  dram::DeviceConfig device;
  FaultProfile fault;
};

/// All 25 device names, DDR4 modules first.
const std::vector<std::string>& AllDeviceNames();
/// The 21 DDR4 module names.
const std::vector<std::string>& Ddr4ModuleNames();
/// The 4 HBM2 chip names.
const std::vector<std::string>& Hbm2ChipNames();

/// Catalog lookup; throws FatalError for unknown names.
TestedChip MakeTestedChip(std::string_view name,
                          std::uint64_t base_seed = 2025);

/// Instantiate the device with its trap fault engine attached.
std::unique_ptr<dram::Device> BuildDevice(std::string_view name,
                                          std::uint64_t base_seed = 2025);

/**
 * A hypothetical near-future DDR5 device (not part of the paper's
 * Table 1 population): PRAC-capable per JESD79-5C, with a weak-cell
 * population around the "near-future RDT of 1024" regime that §6.3
 * evaluates. Use for PRAC / mitigation experiments at the device
 * level.
 */
TestedChip MakeFutureDdr5Chip(std::uint64_t base_seed = 2025);
std::unique_ptr<dram::Device> BuildFutureDdr5Device(
    std::uint64_t base_seed = 2025);

}  // namespace vrddram::vrd

#endif  // VRDDRAM_VRD_CHIP_CATALOG_H
