#include "vrd/chip_catalog.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"

namespace vrddram::vrd {

std::string ToString(Manufacturer mfr) {
  switch (mfr) {
    case Manufacturer::kMfrH: return "Mfr. H";
    case Manufacturer::kMfrM: return "Mfr. M";
    case Manufacturer::kMfrS: return "Mfr. S";
  }
  throw PanicError("unknown manufacturer");
}

namespace {

/// Raw calibration row for one catalog entry.
struct CatalogRow {
  const char* name;
  Manufacturer mfr;
  dram::Standard standard;
  std::uint32_t density_gbit;
  char die_rev;
  std::uint32_t dq_bits;
  std::uint32_t chips;
  const char* date_code;
  double median_rdt;   ///< lognormal median of weak-cell thresholds
  double k_press;      ///< RowPress sensitivity (from Table 7 ratios)
  double severity;     ///< VRD severity knob (fast-trap population)
  double rare_weight;  ///< median weight of rare deep-minimum traps
};

// median_rdt ~ 2.2x the module's Table 7 minimum observed RDT at
// tAggOn = tRAS (the minimum across many rows sits well below the
// per-cell median); k_press from the tRAS/tREFI min-RDT ratio;
// severity from the module's expected-normalized-min band (Fig. 9 /
// Table 7); rare_weight from the module's worst-row max column.
constexpr CatalogRow kCatalog[] = {
    // name  mfr                standard              Gb  rev dq chips date      medRDT  kprss sev  rare
    {"H0", Manufacturer::kMfrH, dram::Standard::kDdr4, 8, 'J', 8, 8, "N/A",     50000.0, 0.35, 0.5, 0.55},
    {"H1", Manufacturer::kMfrH, dram::Standard::kDdr4, 16, 'C', 8, 8, "36-21",  17000.0, 0.73, 2.0, 0.50},
    {"H2", Manufacturer::kMfrH, dram::Standard::kDdr4, 8, 'A', 8, 8, "43-18",   55000.0, 0.27, 1.0, 0.35},
    {"H3", Manufacturer::kMfrH, dram::Standard::kDdr4, 8, 'D', 8, 8, "38-19",   22000.0, 0.32, 1.0, 0.50},
    {"H4", Manufacturer::kMfrH, dram::Standard::kDdr4, 8, 'D', 8, 8, "38-19",   23000.0, 0.63, 1.0, 0.58},
    {"H5", Manufacturer::kMfrH, dram::Standard::kDdr4, 8, 'D', 8, 8, "24-20",   30000.0, 0.78, 1.0, 0.53},
    {"H6", Manufacturer::kMfrH, dram::Standard::kDdr4, 8, 'D', 8, 8, "24-20",   21000.0, 0.37, 1.0, 0.70},
    {"M0", Manufacturer::kMfrM, dram::Standard::kDdr4, 16, 'E', 16, 4, "46-20", 11000.0, 0.35, 1.5, 0.42},
    {"M1", Manufacturer::kMfrM, dram::Standard::kDdr4, 16, 'F', 8, 8, "37-22",   9500.0, 0.33, 2.5, 0.70},
    {"M2", Manufacturer::kMfrM, dram::Standard::kDdr4, 16, 'F', 8, 8, "37-22",  10000.0, 0.46, 2.5, 0.45},
    {"M3", Manufacturer::kMfrM, dram::Standard::kDdr4, 8, 'R', 8, 8, "12-24",   10000.0, 0.39, 2.0, 0.42},
    {"M4", Manufacturer::kMfrM, dram::Standard::kDdr4, 8, 'R', 8, 8, "12-24",    8000.0, 0.14, 2.0, 0.75},
    {"M5", Manufacturer::kMfrM, dram::Standard::kDdr4, 8, 'R', 8, 8, "10-24",   10000.0, 0.27, 2.0, 0.72},
    {"M6", Manufacturer::kMfrM, dram::Standard::kDdr4, 16, 'F', 8, 8, "12-24",   9500.0, 0.30, 3.0, 0.55},
    {"S0", Manufacturer::kMfrS, dram::Standard::kDdr4, 8, 'C', 8, 8, "N/A",    27000.0, 1.24, 0.5, 1.30},
    {"S1", Manufacturer::kMfrS, dram::Standard::kDdr4, 8, 'B', 8, 8, "53-20",  65000.0, 2.00, 0.3, 0.75},
    {"S2", Manufacturer::kMfrS, dram::Standard::kDdr4, 8, 'D', 8, 8, "10-21",  14000.0, 0.65, 1.0, 0.70},
    {"S3", Manufacturer::kMfrS, dram::Standard::kDdr4, 16, 'A', 8, 8, "20-23", 18000.0, 0.22, 1.0, 0.55},
    {"S4", Manufacturer::kMfrS, dram::Standard::kDdr4, 4, 'C', 16, 4, "19-19", 27000.0, 1.43, 0.5, 0.63},
    {"S5", Manufacturer::kMfrS, dram::Standard::kDdr4, 16, 'B', 16, 8, "15-23", 15000.0, 0.50, 1.0, 0.48},
    {"S6", Manufacturer::kMfrS, dram::Standard::kDdr4, 16, 'B', 16, 8, "15-23", 17000.0, 0.29, 1.0, 0.78},
    {"Chip0", Manufacturer::kMfrS, dram::Standard::kHbm2, 8, '?', 128, 1, "N/A", 95000.0, 8.40, 1.0, 0.62},
    {"Chip1", Manufacturer::kMfrS, dram::Standard::kHbm2, 8, '?', 128, 1, "N/A", 90000.0, 4.25, 1.0, 0.68},
    {"Chip2", Manufacturer::kMfrS, dram::Standard::kHbm2, 8, '?', 128, 1, "N/A", 75000.0, 5.20, 1.0, 0.58},
    {"Chip3", Manufacturer::kMfrS, dram::Standard::kHbm2, 8, '?', 128, 1, "N/A", 115000.0, 7.70, 1.0, 0.72},
};

dram::RowMappingScheme SchemeFor(Manufacturer mfr,
                                 dram::Standard standard) {
  if (standard == dram::Standard::kHbm2) {
    return dram::RowMappingScheme::kDirect;
  }
  switch (mfr) {
    case Manufacturer::kMfrH: return dram::RowMappingScheme::kXorMidBits;
    case Manufacturer::kMfrM: return dram::RowMappingScheme::kPairSwap16;
    case Manufacturer::kMfrS: return dram::RowMappingScheme::kDirect;
  }
  throw PanicError("unknown manufacturer");
}

const CatalogRow& FindRow(std::string_view name) {
  for (const CatalogRow& row : kCatalog) {
    if (name == row.name) {
      return row;
    }
  }
  throw FatalError("unknown device name: " + std::string(name));
}

}  // namespace

const std::vector<std::string>& AllDeviceNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CatalogRow& row : kCatalog) {
      out.emplace_back(row.name);
    }
    return out;
  }();
  return names;
}

const std::vector<std::string>& Ddr4ModuleNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CatalogRow& row : kCatalog) {
      if (row.standard == dram::Standard::kDdr4) {
        out.emplace_back(row.name);
      }
    }
    return out;
  }();
  return names;
}

const std::vector<std::string>& Hbm2ChipNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CatalogRow& row : kCatalog) {
      if (row.standard == dram::Standard::kHbm2) {
        out.emplace_back(row.name);
      }
    }
    return out;
  }();
  return names;
}

TestedChip MakeTestedChip(std::string_view name, std::uint64_t base_seed) {
  const CatalogRow& row = FindRow(name);

  TestedChip chip;
  chip.spec.name = row.name;
  chip.spec.mfr = row.mfr;
  chip.spec.standard = row.standard;
  chip.spec.density_gbit = row.density_gbit;
  chip.spec.die_rev = row.die_rev;
  chip.spec.dq_bits = row.dq_bits;
  chip.spec.chips_per_rank = row.chips;
  chip.spec.date_code = row.date_code;

  chip.device.name = row.name;
  chip.device.seed = HashLabel(base_seed, name);
  chip.device.row_mapping = SchemeFor(row.mfr, row.standard);
  if (row.standard == dram::Standard::kHbm2) {
    chip.device.org = dram::MakeHbm2Org();
    chip.device.timing = dram::MakeHbm2();
    chip.device.has_on_die_ecc = true;  // disabled via MR for testing
  } else {
    chip.device.org =
        dram::MakeDdr4Org(row.density_gbit, row.dq_bits, row.chips);
    chip.device.timing = dram::MakeDdr4_3200();
    chip.device.has_on_die_ecc = false;
  }
  // Layout fractions vary per device; M0 is calibrated to the paper's
  // measured 20-of-50 anti-cell rows (§5.6).
  chip.device.anti_cell_fraction =
      (name == "M0") ? 0.4
                     : 0.25 + 0.3 * (static_cast<double>(HashLabel(
                                         7, name) % 1000) / 1000.0);

  FaultProfile& fault = chip.fault;
  // DDR4 medians carry an extra factor: the deep row selection (the
  // lowest-RDT rows of three 1024-row regions) and the temporal dips
  // place the campaign's minimum observed RDT well below the per-cell
  // median, calibrated against Table 7's minima.
  fault.median_rdt = row.median_rdt *
                     (row.standard == dram::Standard::kDdr4 ? 1.6 : 1.0);
  fault.k_press = row.k_press;
  fault.t_ras = chip.device.timing.tRAS;
  fault.fast_trap_mean = 3.0 + 0.5 * row.severity;
  fault.fast_weight_med = 0.003 + 0.0015 * row.severity;
  fault.measurement_noise_sigma = 0.012 + 0.005 * row.severity;
  fault.rare_weight_med = row.rare_weight;
  fault.bimodal_trap_prob = (name == "Chip1") ? 0.9 : 0.0;
  chip.device.retention = dram::RetentionParams::MakeDefault();
  return chip;
}

std::unique_ptr<dram::Device> BuildDevice(std::string_view name,
                                          std::uint64_t base_seed) {
  TestedChip chip = MakeTestedChip(name, base_seed);
  auto engine = std::make_unique<TrapFaultEngine>(
      chip.fault, chip.device.seed, chip.device.org);
  return std::make_unique<dram::Device>(chip.device, std::move(engine));
}

TestedChip MakeFutureDdr5Chip(std::uint64_t base_seed) {
  TestedChip chip;
  chip.spec.name = "DDR5-FUT";
  chip.spec.mfr = Manufacturer::kMfrM;
  chip.spec.standard = dram::Standard::kDdr5;
  chip.spec.density_gbit = 16;
  chip.spec.die_rev = 'Z';
  chip.spec.dq_bits = 8;
  chip.spec.chips_per_rank = 8;
  chip.spec.date_code = "N/A";

  chip.device.name = chip.spec.name;
  chip.device.seed = HashLabel(base_seed, chip.spec.name);
  chip.device.org = dram::MakeDdr5Org();
  chip.device.timing = dram::MakeDdr5_8800();
  chip.device.row_mapping = dram::RowMappingScheme::kPairSwap16;
  chip.device.has_prac = true;
  chip.device.anti_cell_fraction = 0.5;

  FaultProfile& fault = chip.fault;
  // The "near-future RDT of 1024" regime of §6.3, with worst-in-class
  // VRD severity per Finding 11 (most advanced node).
  fault.median_rdt = 2500.0;
  fault.k_press = 0.8;
  fault.t_ras = chip.device.timing.tRAS;
  fault.fast_trap_mean = 5.0;
  fault.fast_weight_med = 0.012;
  fault.measurement_noise_sigma = 0.030;
  fault.rare_weight_med = 0.8;
  return chip;
}

std::unique_ptr<dram::Device> BuildFutureDdr5Device(
    std::uint64_t base_seed) {
  TestedChip chip = MakeFutureDdr5Chip(base_seed);
  auto engine = std::make_unique<TrapFaultEngine>(
      chip.fault, chip.device.seed, chip.device.org);
  return std::make_unique<dram::Device>(chip.device, std::move(engine));
}

}  // namespace vrddram::vrd
