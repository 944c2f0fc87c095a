#include "memsim/workload.h"

#include "common/error.h"

namespace vrddram::memsim {

std::vector<WorkloadMix> MakeHighMemoryIntensityMixes(std::uint64_t seed) {
  // Archetypes spanning the behaviours of the paper's suites:
  // streaming (high locality), pointer-chasing (low locality),
  // transactional (medium), and bursty analytics.
  struct Archetype {
    const char* name;
    double mpki_lo, mpki_hi;
    double loc_lo, loc_hi;
    double wr;
    std::uint32_t hot_rows;
    std::uint32_t hot_banks;
  };
  // hot_banks concentrates each core's working set on a few banks,
  // which is what row-conflict-heavy memory-intensive workloads do.
  constexpr Archetype kArchetypes[] = {
      {"stream", 25.0, 45.0, 0.75, 0.92, 0.30, 16, 4},
      {"chase", 30.0, 70.0, 0.05, 0.25, 0.05, 512, 12},
      {"txn", 20.0, 40.0, 0.35, 0.60, 0.35, 128, 8},
      {"scan", 40.0, 90.0, 0.55, 0.80, 0.15, 64, 6},
  };

  Rng rng(seed);
  std::vector<WorkloadMix> mixes;
  mixes.reserve(15);
  for (int m = 0; m < 15; ++m) {
    WorkloadMix mix;
    mix.name = "mix" + std::to_string(m);
    for (int c = 0; c < 4; ++c) {
      const Archetype& arch = kArchetypes[rng.NextBelow(4)];
      CoreProfile profile;
      profile.name = std::string(arch.name) + "-" + std::to_string(m) +
                     "." + std::to_string(c);
      profile.mpki =
          arch.mpki_lo + (arch.mpki_hi - arch.mpki_lo) * rng.NextDouble();
      profile.row_locality =
          arch.loc_lo + (arch.loc_hi - arch.loc_lo) * rng.NextDouble();
      profile.write_fraction = arch.wr;
      profile.hot_rows = arch.hot_rows;
      profile.hot_banks = arch.hot_banks;
      mix.cores.push_back(profile);
    }
    mixes.push_back(std::move(mix));
  }
  return mixes;
}

CoreGenerator::CoreGenerator(const CoreProfile& profile,
                             std::uint32_t num_banks,
                             std::uint32_t rows_per_bank,
                             std::uint64_t seed)
    : profile_(profile),
      num_banks_(num_banks),
      rows_per_bank_(rows_per_bank),
      rng_(seed) {
  VRD_FATAL_IF(num_banks == 0 || rows_per_bank == 0, "empty geometry");
  VRD_FATAL_IF(profile.mpki <= 0.0, "MPKI must be positive");
  hot_rows_.reserve(profile_.hot_rows);
  for (std::uint32_t i = 0; i < profile_.hot_rows; ++i) {
    hot_rows_.push_back(
        static_cast<std::uint32_t>(rng_.NextBelow(rows_per_bank_)));
  }
  const std::uint32_t bank_set =
      std::max<std::uint32_t>(1, std::min(profile_.hot_banks, num_banks_));
  hot_banks_.reserve(bank_set);
  for (std::uint32_t i = 0; i < bank_set; ++i) {
    hot_banks_.push_back(
        static_cast<std::uint32_t>(rng_.NextBelow(num_banks_)));
  }
  current_bank_ = hot_banks_[rng_.NextBelow(hot_banks_.size())];
  current_row_ = hot_rows_.empty()
                     ? 0
                     : hot_rows_[rng_.NextBelow(hot_rows_.size())];
}

Request CoreGenerator::Next() {
  if (!rng_.NextBernoulli(profile_.row_locality)) {
    current_bank_ = hot_banks_[rng_.NextBelow(hot_banks_.size())];
    current_row_ = hot_rows_[rng_.NextBelow(hot_rows_.size())];
  }
  Request request;
  request.bank = current_bank_;
  request.row = current_row_;
  request.is_write = rng_.NextBernoulli(profile_.write_fraction);
  return request;
}

Tick ThinkTime(const CoreProfile& profile) {
  VRD_FATAL_IF(profile.mpki <= 0.0, "MPKI must be positive");
  // A 4 GHz core retiring 2 IPC between misses: 1000/MPKI instructions
  // take (1000 / MPKI) / 8 ns.
  const double instructions = 1000.0 / profile.mpki;
  const double ns = instructions / 8.0;
  return static_cast<Tick>(ns * static_cast<double>(units::kNanosecond));
}

}  // namespace vrddram::memsim
