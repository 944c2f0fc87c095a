#include "memsim/workload.h"

#include "common/error.h"

#include <gtest/gtest.h>

#include <set>

namespace vrddram::memsim {
namespace {

TEST(WorkloadTest, FifteenFourCoreMixes) {
  const auto mixes = MakeHighMemoryIntensityMixes();
  ASSERT_EQ(mixes.size(), 15u);
  for (const WorkloadMix& mix : mixes) {
    EXPECT_EQ(mix.cores.size(), 4u);
    for (const CoreProfile& core : mix.cores) {
      // §6.3: highly memory intensive means LLC MPKI >= 20.
      EXPECT_GE(core.mpki, 20.0) << core.name;
      EXPECT_GE(core.row_locality, 0.0);
      EXPECT_LE(core.row_locality, 1.0);
    }
  }
}

TEST(WorkloadTest, MixesAreDeterministic) {
  const auto a = MakeHighMemoryIntensityMixes(42);
  const auto b = MakeHighMemoryIntensityMixes(42);
  for (std::size_t m = 0; m < a.size(); ++m) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(a[m].cores[c].mpki, b[m].cores[c].mpki);
    }
  }
}

TEST(WorkloadTest, GeneratorIsDeterministic) {
  const CoreProfile profile{"p", 30.0, 0.5, 0.2, 64};
  CoreGenerator a(profile, 32, 1024, 7);
  CoreGenerator b(profile, 32, 1024, 7);
  for (int i = 0; i < 1000; ++i) {
    const Request ra = a.Next();
    const Request rb = b.Next();
    EXPECT_EQ(ra.bank, rb.bank);
    EXPECT_EQ(ra.row, rb.row);
    EXPECT_EQ(ra.is_write, rb.is_write);
  }
}

TEST(WorkloadTest, AddressesStayInBounds) {
  const CoreProfile profile{"p", 30.0, 0.3, 0.2, 256};
  CoreGenerator gen(profile, 8, 128, 9);
  for (int i = 0; i < 5000; ++i) {
    const Request r = gen.Next();
    EXPECT_LT(r.bank, 8u);
    EXPECT_LT(r.row, 128u);
  }
}

TEST(WorkloadTest, LocalityControlsRowReuse) {
  const CoreProfile local{"local", 30.0, 0.9, 0.0, 64};
  const CoreProfile random{"random", 30.0, 0.05, 0.0, 64};
  CoreGenerator local_gen(local, 32, 65536, 3);
  CoreGenerator random_gen(random, 32, 65536, 3);

  auto reuse_rate = [](CoreGenerator& gen) {
    Request prev = gen.Next();
    int same = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const Request cur = gen.Next();
      if (cur.bank == prev.bank && cur.row == prev.row) {
        ++same;
      }
      prev = cur;
    }
    return static_cast<double>(same) / n;
  };
  EXPECT_GT(reuse_rate(local_gen), 0.8);
  EXPECT_LT(reuse_rate(random_gen), 0.2);
}

TEST(WorkloadTest, ThinkTimeInverseInMpki) {
  const CoreProfile slow{"slow", 20.0, 0.5, 0.2, 64};
  const CoreProfile fast{"fast", 80.0, 0.5, 0.2, 64};
  EXPECT_GT(ThinkTime(slow), ThinkTime(fast));
  // MPKI 20 -> 50 instructions per miss -> 6.25 ns at 8 instr/ns.
  EXPECT_EQ(ThinkTime(slow), units::FromNs(6.25));
  EXPECT_THROW(ThinkTime(CoreProfile{"idle", 0.0}), FatalError);
}

TEST(WorkloadTest, WriteFractionRespected) {
  const CoreProfile profile{"w", 30.0, 0.5, 0.35, 64};
  CoreGenerator gen(profile, 32, 1024, 5);
  int writes = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    writes += gen.Next().is_write ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.35, 0.01);
}

}  // namespace
}  // namespace vrddram::memsim

namespace vrddram::memsim {
namespace {

TEST(WorkloadTest, MixesSpanMultipleArchetypes) {
  const auto mixes = MakeHighMemoryIntensityMixes();
  std::set<std::string> archetypes;
  for (const WorkloadMix& mix : mixes) {
    for (const CoreProfile& core : mix.cores) {
      archetypes.insert(core.name.substr(0, core.name.find('-')));
    }
  }
  // All four behavioural archetypes appear across the population.
  EXPECT_EQ(archetypes.size(), 4u);
}

TEST(WorkloadTest, HotBanksBoundBankSpread) {
  const CoreProfile profile{"p", 30.0, 0.0, 0.2, 64, 4};
  CoreGenerator gen(profile, 32, 1024, 11);
  std::set<std::uint32_t> banks;
  for (int i = 0; i < 5000; ++i) {
    banks.insert(gen.Next().bank);
  }
  EXPECT_LE(banks.size(), 4u);
}

}  // namespace
}  // namespace vrddram::memsim
