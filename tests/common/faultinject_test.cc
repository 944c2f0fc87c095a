#include "common/faultinject.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/error.h"

namespace vrddram::fi {
namespace {

TEST(FaultPlanTest, EmptySpecNeverFires) {
  const FaultPlan plan = FaultPlan::Parse("", 1);
  EXPECT_TRUE(plan.empty());
  FaultScope scope(plan, "anything");
  EXPECT_FALSE(ShouldFire("any.site"));
}

TEST(FaultPlanTest, ParsesSitesAndKeys) {
  const FaultPlan plan = FaultPlan::Parse(
      "a.b:p=0.5,max=2;c.d:match=M1@50,attempt_lt=1; e.f ", 7);
  EXPECT_EQ(plan.seed(), 7u);
  ASSERT_EQ(plan.sites().size(), 3u);
  const SiteSpec* a = plan.Find("a.b");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->probability, 0.5);
  EXPECT_EQ(a->max_fires, 2u);
  const SiteSpec* c = plan.Find("c.d");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->match, "M1@50");
  EXPECT_EQ(c->attempt_lt, 1u);
  const SiteSpec* e = plan.Find("e.f");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->probability, 1.0);
  EXPECT_EQ(plan.Find("nope"), nullptr);
}

TEST(FaultPlanTest, MalformedSpecsAreFatal) {
  EXPECT_THROW(FaultPlan::Parse(":p=1", 0), FatalError);
  EXPECT_THROW(FaultPlan::Parse("a.b:p", 0), FatalError);
  EXPECT_THROW(FaultPlan::Parse("a.b:p=2", 0), FatalError);
  EXPECT_THROW(FaultPlan::Parse("a.b:p=-0.5", 0), FatalError);
  EXPECT_THROW(FaultPlan::Parse("a.b:p=nan", 0), FatalError);
  EXPECT_THROW(FaultPlan::Parse("a.b:max=abc", 0), FatalError);
  EXPECT_THROW(FaultPlan::Parse("a.b:mystery=1", 0), FatalError);
  EXPECT_THROW(FaultPlan::Parse("a.b;a.b", 0), FatalError);
}

TEST(FaultScopeTest, NoActiveScopeMeansNoFires) {
  EXPECT_FALSE(ShouldFire("a.b"));
}

TEST(FaultScopeTest, CertainFireRespectsBudgetAndMatch) {
  const FaultPlan plan = FaultPlan::Parse("a.b:max=2,match=M1", 3);
  {
    FaultScope scope(plan, "campaign/M1@50");
    EXPECT_TRUE(ShouldFire("a.b"));
    EXPECT_TRUE(ShouldFire("a.b"));
    EXPECT_FALSE(ShouldFire("a.b")) << "budget of 2 exhausted";
    EXPECT_FALSE(ShouldFire("c.d")) << "unconfigured site";
  }
  {
    FaultScope scope(plan, "campaign/S2@50");
    EXPECT_FALSE(ShouldFire("a.b")) << "label does not match M1";
  }
}

TEST(FaultScopeTest, AttemptGateMakesRetriesSucceed) {
  const FaultPlan plan = FaultPlan::Parse("a.b:attempt_lt=1", 3);
  {
    FaultScope first_attempt(plan, "shard", 0);
    EXPECT_TRUE(ShouldFire("a.b"));
  }
  {
    FaultScope retry(plan, "shard", 1);
    EXPECT_FALSE(ShouldFire("a.b"));
  }
}

TEST(FaultScopeTest, ProbabilisticScheduleIsReproduciblePerScope) {
  const FaultPlan plan = FaultPlan::Parse("a.b:p=0.3", 99);
  auto draw = [&](const std::string& label) {
    std::vector<bool> fires;
    FaultScope scope(plan, label);
    for (int i = 0; i < 64; ++i) {
      fires.push_back(ShouldFire("a.b"));
    }
    return fires;
  };
  const std::vector<bool> first = draw("shard-A");
  EXPECT_EQ(first, draw("shard-A")) << "same (label, attempt) replays";
  EXPECT_NE(first, draw("shard-B")) << "labels get independent streams";
}

TEST(FaultScopeTest, ScheduleIsIndependentOfThread) {
  const FaultPlan plan = FaultPlan::Parse("a.b:p=0.5", 42);
  auto draw = [&plan]() {
    std::vector<bool> fires;
    FaultScope scope(plan, "shard");
    for (int i = 0; i < 32; ++i) {
      fires.push_back(ShouldFire("a.b"));
    }
    return fires;
  };
  const std::vector<bool> here = draw();
  std::vector<bool> there;
  std::thread worker([&] { there = draw(); });
  worker.join();
  EXPECT_EQ(here, there);
}

TEST(FaultScopeTest, ScopesNest) {
  const FaultPlan outer_plan = FaultPlan::Parse("a.b", 1);
  const FaultPlan inner_plan = FaultPlan::Parse("c.d", 1);
  FaultScope outer(outer_plan, "outer");
  {
    FaultScope inner(inner_plan, "inner");
    EXPECT_FALSE(ShouldFire("a.b")) << "innermost scope answers";
    EXPECT_TRUE(ShouldFire("c.d"));
  }
  EXPECT_TRUE(ShouldFire("a.b")) << "outer scope restored";
}

TEST(FaultScopeTest, EmptyInnerScopeAnswersForItsArmedOuterScope) {
  const FaultPlan armed_plan = FaultPlan::Parse("a.b", 1);
  const FaultPlan empty_plan = FaultPlan::Parse("", 1);
  FaultScope outer(armed_plan, "outer");
  EXPECT_TRUE(outer.armed());
  {
    FaultScope inner(empty_plan, "inner");
    EXPECT_FALSE(inner.armed());
    EXPECT_FALSE(ShouldFire("a.b")) << "innermost scope answers";
  }
  EXPECT_TRUE(ShouldFire("a.b")) << "outer scope restored";
}

}  // namespace
}  // namespace vrddram::fi
