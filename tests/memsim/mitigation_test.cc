#include "memsim/mitigation.h"

#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "common/error.h"
#include "common/rng.h"

namespace vrddram::memsim {
namespace {

const dram::TimingParams kTiming = dram::MakeDdr5_8800();

/// The activation triggered no preventive action.
bool IsFree(const Penalty& p) {
  return p.bank_busy == 0 && p.rank_busy == 0 && p.extra_activations == 0;
}

TEST(MitigationTest, FactoryBuildsEveryKind) {
  auto make = [](MitigationKind kind) {
    return MakeMitigation(kind, 1024, kTiming, 1);
  };
  EXPECT_NE(dynamic_cast<NoMitigation*>(make(MitigationKind::kNone).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<Graphene*>(make(MitigationKind::kGraphene).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<Prac*>(make(MitigationKind::kPrac).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<Para*>(make(MitigationKind::kPara).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<Mint*>(make(MitigationKind::kMint).get()),
            nullptr);
}

TEST(MitigationTest, NoMitigationIsFree) {
  NoMitigation none;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(IsFree(none.OnActivate(0, 5)));
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
    const Penalty penalty = graphene.OnActivate(0, 42);
    total_penalty += penalty.bank_busy;
    total_extra_acts += penalty.extra_activations;
  }
  EXPECT_EQ(total_penalty, costs.neighbor_refresh);
  EXPECT_EQ(total_extra_acts, 2u);  // both neighbors refreshed
  EXPECT_EQ(graphene.preventive_actions(), 1u);
  // Counter reset: the next threshold-1 activations are free.
  total_penalty = 0;
  for (std::uint64_t i = 0; i + 1 < threshold; ++i) {
    total_penalty += graphene.OnActivate(0, 42).bank_busy;
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
    penalty += graphene.OnActivate(0, 7).bank_busy;
    penalty += graphene.OnActivate(1, 7).bank_busy;
  }
  EXPECT_EQ(penalty, 0);
}

TEST(MitigationTest, GrapheneSpillsArePinned) {
  // Hot rows 0-3 share two banks with a stream of cold rows that keeps
  // the 64-entry tables full, so the Misra-Gries decrement-all path
  // runs and delays the hot rows' refreshes: an unbounded table would
  // take 96 actions (each hot row gets ~12,500 activations).
  Graphene graphene(4096, MitigationCosts::FromTiming(kTiming));
  ASSERT_EQ(graphene.threshold(), 1024u);
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    const auto bank = static_cast<std::uint32_t>(rng.NextBelow(2));
    const auto row = static_cast<std::uint32_t>(
        rng.NextBernoulli(0.5) ? rng.NextBelow(4) : rng.NextBelow(1000));
    graphene.OnActivate(bank, row);
  }
  EXPECT_EQ(graphene.preventive_actions(), 88u);
}

TEST(MitigationTest, PerBankEnginesRejectOutOfRangeBanks) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Graphene graphene(1024, costs);
  Mint mint(1024, costs);
  EXPECT_NO_THROW(graphene.OnActivate(kNumBanks - 1, 0));
  EXPECT_NO_THROW(mint.OnActivate(kNumBanks - 1, 0));
  EXPECT_THROW(graphene.OnActivate(kNumBanks, 0), PanicError);
  EXPECT_THROW(mint.OnActivate(kNumBanks, 0), PanicError);
}

TEST(MitigationTest, PracThresholdIsTwoFifthsOfRdt) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  // rdt * 2 / 5 in integers, floored at 2: every Fig. 14 configured
  // RDT plus the smallest accepted one.
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {4, 2},     {64, 25},   {96, 38},   {115, 46},  {128, 51},
      {512, 204}, {768, 307}, {921, 368}, {1024, 409}};
  for (const auto& [rdt, threshold] : pins) {
    EXPECT_EQ(Prac(rdt, costs).threshold(), threshold) << rdt;
  }
}

TEST(MitigationTest, PracChargesPerActTaxAndBacksOff) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Prac prac(128, costs);
  const std::uint64_t threshold = prac.threshold();
  Tick bank_total = 0;
  Tick rank_total = 0;
  for (std::uint64_t i = 0; i < threshold; ++i) {
    const Penalty penalty = prac.OnActivate(0, 9);
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
    if (!IsFree(para.OnActivate(0, 1))) {
      ++refreshes;
    }
  }
  EXPECT_NEAR(static_cast<double>(refreshes) / n, para.probability(),
              0.005);
}

TEST(MitigationTest, MintIntervalIsPowerOfTwo) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  // The power of two nearest rdt/16 in log2 (the tracker's window
  // register): 115/16 = 7 rounds up to 8, 100000/16 = 6250 to 8192.
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {64, 4}, {115, 8}, {128, 8}, {1024, 64}, {100000, 8192}};
  for (const auto& [rdt, interval] : pins) {
    const Mint mint(rdt, costs);
    EXPECT_TRUE(std::has_single_bit(mint.rfm_interval())) << rdt;
    EXPECT_EQ(mint.rfm_interval(), interval) << rdt;
  }
}

TEST(MitigationTest, MintSmallMarginDoesNotChangeBehaviour) {
  // The paper's footnote 16: MINT's preventive actions do not change
  // when RDT drops from 128 to 115 (the interval register quantizes).
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Mint at_128(128, costs);
  Mint at_115(115, costs);
  EXPECT_EQ(at_128.rfm_interval(), at_115.rfm_interval());
  // A 50% margin does change it.
  Mint at_64(64, costs);
  EXPECT_LT(at_64.rfm_interval(), at_128.rfm_interval());
}

TEST(MitigationTest, MintChargesRfmPeriodically) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  Mint mint(1024, costs);
  const std::uint64_t interval = mint.rfm_interval();
  Tick total = 0;
  for (std::uint64_t i = 0; i < interval * 5; ++i) {
    total += mint.OnActivate(0, static_cast<std::uint32_t>(i)).bank_busy;
  }
  EXPECT_EQ(total, 5 * costs.rfm);
  EXPECT_EQ(mint.preventive_actions(), 5u);
}

TEST(MitigationTest, TooSmallRdtRejected) {
  const MitigationCosts costs = MitigationCosts::FromTiming(kTiming);
  EXPECT_THROW(Graphene(2, costs), FatalError);
  EXPECT_THROW(Prac(2, costs), FatalError);
  EXPECT_THROW(Para(1, costs, 1), FatalError);
  EXPECT_THROW(Mint(4, costs), FatalError);
}

}  // namespace
}  // namespace vrddram::memsim
