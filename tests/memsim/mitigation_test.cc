#include "memsim/mitigation.h"

#include <gtest/gtest.h>

#include <bit>

#include "common/error.h"

namespace vrddram::memsim {
namespace {

const dram::TimingParams kTiming = dram::MakeDdr5_8800();

/// The activation triggered no preventive action.
bool IsFree(const Penalty& p) {
  return p.bank_busy == 0 && p.rank_busy == 0 && p.extra_activations == 0;
}

TEST(MitigationTest, FactoryBuildsEveryKind) {
  for (const MitigationKind kind :
       {MitigationKind::kNone, MitigationKind::kGraphene,
        MitigationKind::kPrac, MitigationKind::kPara,
        MitigationKind::kMint}) {
    const auto mitigation = MakeMitigation(kind, 1024, kTiming, 1);
    ASSERT_NE(mitigation, nullptr);
    EXPECT_EQ(mitigation->kind(), kind);
  }
}

TEST(MitigationTest, NoMitigationIsFree) {
  NoMitigation none;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(IsFree(none.OnActivate(0, 5, i)));
  }
  EXPECT_EQ(none.preventive_actions(), 0u);
}

TEST(MitigationTest, GrapheneTriggersAtThreshold) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Graphene graphene(1024, costs);
  const std::uint64_t threshold = graphene.threshold();
  ASSERT_GT(threshold, 0u);

  Tick total_penalty = 0;
  std::uint32_t total_extra_acts = 0;
  for (std::uint64_t i = 0; i < threshold; ++i) {
    const Penalty penalty = graphene.OnActivate(0, 42, 0);
    total_penalty += penalty.bank_busy;
    total_extra_acts += penalty.extra_activations;
  }
  EXPECT_EQ(total_penalty, costs.neighbor_refresh);
  EXPECT_EQ(total_extra_acts, 2u);  // both neighbors refreshed
  EXPECT_EQ(graphene.preventive_actions(), 1u);
  // Counter reset: the next threshold-1 activations are free.
  total_penalty = 0;
  for (std::uint64_t i = 0; i + 1 < threshold; ++i) {
    total_penalty += graphene.OnActivate(0, 42, 0).bank_busy;
  }
  EXPECT_EQ(total_penalty, 0);
}

TEST(MitigationTest, GrapheneTracksPerBank) {
  Graphene graphene(1024, MitigationCosts::FromTiming(kTiming));
  const std::uint64_t threshold = graphene.threshold();
  // Spread activations to the same row id in two banks: each bank has
  // its own counter, so neither reaches the threshold.
  Tick penalty = 0;
  for (std::uint64_t i = 0; i < threshold - 1; ++i) {
    penalty += graphene.OnActivate(0, 7, 0).bank_busy;
    penalty += graphene.OnActivate(1, 7, 0).bank_busy;
  }
  EXPECT_EQ(penalty, 0);
}

TEST(MitigationTest, PracChargesPerActTaxAndBacksOff) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Prac prac(128, costs);
  const std::uint64_t threshold = prac.threshold();
  Tick bank_total = 0;
  Tick rank_total = 0;
  for (std::uint64_t i = 0; i < threshold; ++i) {
    const Penalty penalty = prac.OnActivate(0, 9, 0);
    bank_total += penalty.bank_busy;
    rank_total += penalty.rank_busy;
  }
  EXPECT_EQ(bank_total, static_cast<Tick>(threshold) * Prac::kPerActTax);
  // The back-off is a rank-wide blackout.
  EXPECT_EQ(rank_total, costs.rfm);
  EXPECT_EQ(prac.preventive_actions(), 1u);
}

TEST(MitigationTest, ParaProbabilityScalesInverselyWithRdt) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Para high(1024, costs, 1);
  Para low(64, costs, 1);
  EXPECT_LT(high.probability(), low.probability());
  EXPECT_NEAR(high.probability(), 34.5 / 1024.0, 1e-9);
  EXPECT_NEAR(low.probability(), 34.5 / 64.0, 1e-9);
}

TEST(MitigationTest, ParaRefreshRateMatchesProbability) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Para para(256, costs, 77);
  const int n = 200000;
  int refreshes = 0;
  for (int i = 0; i < n; ++i) {
    if (!IsFree(para.OnActivate(0, 1, 0))) {
      ++refreshes;
    }
  }
  EXPECT_NEAR(static_cast<double>(refreshes) / n, para.probability(),
              0.005);
}

TEST(MitigationTest, MintIntervalIsPowerOfTwo) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  for (const std::uint64_t rdt : {64u, 128u, 1024u, 100000u}) {
    Mint mint(rdt, costs, 1);
    EXPECT_TRUE(std::has_single_bit(mint.rfm_interval())) << rdt;
    // Nearest power of two of rdt/8 (the tracker's window register).
    EXPECT_LE(mint.rfm_interval(),
              2 * std::max<std::uint64_t>(2, rdt / 8));
  }
}

TEST(MitigationTest, MintSmallMarginDoesNotChangeBehaviour) {
  // The paper's footnote 16: MINT's preventive actions do not change
  // when RDT drops from 128 to 115 (the interval register quantizes).
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Mint at_128(128, costs, 1);
  Mint at_115(115, costs, 1);
  EXPECT_EQ(at_128.rfm_interval(), at_115.rfm_interval());
  // A 50% margin does change it.
  Mint at_64(64, costs, 1);
  EXPECT_LT(at_64.rfm_interval(), at_128.rfm_interval());
}

TEST(MitigationTest, MintChargesRfmPeriodically) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Mint mint(1024, costs, 1);
  const std::uint64_t interval = mint.rfm_interval();
  Tick total = 0;
  for (std::uint64_t i = 0; i < interval * 5; ++i) {
    total += mint.OnActivate(0, static_cast<std::uint32_t>(i), 0).bank_busy;
  }
  EXPECT_EQ(total, 5 * costs.rfm);
  EXPECT_EQ(mint.preventive_actions(), 5u);
}

TEST(MitigationTest, TooSmallRdtRejected) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  EXPECT_THROW(Graphene(2, costs), FatalError);
  EXPECT_THROW(Prac(2, costs), FatalError);
  EXPECT_THROW(Para(1, costs, 1), FatalError);
  EXPECT_THROW(Mint(4, costs, 1), FatalError);
}

TEST(MitigationTest, SortedSnapshotsAreKeyOrdered) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);

  Graphene graphene(1024, costs);
  graphene.OnActivate(3, 90, 0);
  graphene.OnActivate(1, 70, 0);
  graphene.OnActivate(1, 50, 0);
  const auto tables = graphene.SortedTables();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].first, 1u);
  EXPECT_EQ(tables[1].first, 3u);
  ASSERT_EQ(tables[0].second.size(), 2u);
  EXPECT_EQ(tables[0].second[0].row, 50u);
  EXPECT_EQ(tables[0].second[1].row, 70u);
  EXPECT_EQ(tables[0].second[0].count, 1u);

  Prac prac(1024, costs);
  prac.OnActivate(2, 9, 0);
  prac.OnActivate(0, 4, 0);
  prac.OnActivate(0, 4, 0);
  const auto counters = prac.SortedCounters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, (std::uint64_t{0} << 32) | 4u);
  EXPECT_EQ(counters[0].second, 2u);
  EXPECT_EQ(counters[1].first, (std::uint64_t{2} << 32) | 9u);

  Mint mint(1024, costs, 1);
  mint.OnActivate(5, 1, 0);
  mint.OnActivate(2, 1, 0);
  mint.OnActivate(2, 2, 0);
  const auto banks = mint.SortedBankCounters();
  ASSERT_EQ(banks.size(), 2u);
  EXPECT_EQ(banks[0].first, 2u);
  EXPECT_EQ(banks[0].second, 2u);
  EXPECT_EQ(banks[1].first, 5u);
  EXPECT_EQ(banks[1].second, 1u);
}

TEST(MitigationTest, Names) {
  EXPECT_EQ(ToString(MitigationKind::kGraphene), "Graphene");
  EXPECT_EQ(ToString(MitigationKind::kPrac), "PRAC");
  EXPECT_EQ(ToString(MitigationKind::kPara), "PARA");
  EXPECT_EQ(ToString(MitigationKind::kMint), "MINT");
  EXPECT_EQ(ToString(MitigationKind::kNone), "None");
}

}  // namespace
}  // namespace vrddram::memsim
