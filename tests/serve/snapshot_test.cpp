// Snapshot semantics: calibration matches the batch pricing path
// exactly, tier schedules partition the market, and the socket-free
// query evaluators enforce their contracts.
#include "serve/snapshot.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "gtest/gtest.h"
#include "pricing/counterfactual.hpp"
#include "serve_test_util.hpp"

namespace manytiers::serve {
namespace {

using testing::tiny_grid;

class SmokeSnapshotTest : public ::testing::Test {
 protected:
  // One snapshot shared across the suite: smoke-grid calibration is the
  // expensive part and all assertions are read-only.
  static void SetUpTestSuite() {
    snapshot_ = new std::shared_ptr<const Snapshot>(
        build_snapshot(driver::smoke_grid()));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    snapshot_ = nullptr;
  }
  const Snapshot& snap() const { return **snapshot_; }

  static std::shared_ptr<const Snapshot>* snapshot_;
};

std::shared_ptr<const Snapshot>* SmokeSnapshotTest::snapshot_ = nullptr;

TEST_F(SmokeSnapshotTest, CoversEveryGridMarket) {
  const auto grid = driver::smoke_grid();
  const std::size_t expected =
      grid.datasets.size() * grid.demand_kinds.size() * grid.cost_kinds.size();
  EXPECT_EQ(snap().markets.size(), expected);
  EXPECT_EQ(snap().epoch, 1u);
  for (const auto& entry : snap().markets) {
    EXPECT_EQ(snap().find_market(entry->key), entry.get());
    EXPECT_EQ(entry->key,
              market_key(entry->dataset, entry->demand, entry->cost));
    EXPECT_EQ(entry->schedules.size(), grid.strategies.size());
  }
  EXPECT_EQ(snap().find_market("no/such/market"), nullptr);
}

TEST_F(SmokeSnapshotTest, StrategySlotsMatchGridOrder) {
  const auto grid = driver::smoke_grid();
  for (std::size_t s = 0; s < grid.strategies.size(); ++s) {
    const auto slot = snap().strategy_slot(grid.strategies[s]);
    ASSERT_TRUE(slot.has_value());
    EXPECT_EQ(*slot, s);
  }
  EXPECT_FALSE(
      snap().strategy_slot(pricing::Strategy::CostDivision).has_value());
}

TEST_F(SmokeSnapshotTest, StrategyNamesResolve) {
  EXPECT_EQ(strategy_from_name("Optimal"), pricing::Strategy::Optimal);
  EXPECT_EQ(strategy_from_name("Profit-weighted"),
            pricing::Strategy::ProfitWeighted);
  EXPECT_EQ(strategy_from_name("Class-aware profit-weighted"),
            pricing::Strategy::ClassAwareProfitWeighted);
  EXPECT_FALSE(strategy_from_name("Optimum").has_value());
}

// The one-pricing-truth invariant, in-process half: every schedule's
// capture must equal what capture_series (the batch driver's path)
// computes — exactly, not approximately.
TEST_F(SmokeSnapshotTest, CaptureMatchesBatchPricingPathExactly) {
  const auto grid = driver::smoke_grid();
  for (const auto& entry : snap().markets) {
    for (std::size_t s = 0; s < grid.strategies.size(); ++s) {
      const auto series = pricing::capture_series(
          entry->market, grid.strategies[s], grid.max_bundles);
      ASSERT_EQ(entry->schedules[s].size(), grid.max_bundles);
      for (std::size_t b = 1; b <= grid.max_bundles; ++b) {
        EXPECT_EQ(entry->schedule(s, b).capture, series[b - 1])
            << entry->key << " strategy slot " << s << " bundles " << b;
      }
    }
  }
}

TEST_F(SmokeSnapshotTest, SchedulesPartitionTheMarket) {
  for (const auto& entry : snap().markets) {
    for (const auto& per_strategy : entry->schedules) {
      for (std::size_t b = 0; b < per_strategy.size(); ++b) {
        const Schedule& schedule = per_strategy[b];
        EXPECT_EQ(schedule.tiers.size(), b + 1);
        EXPECT_EQ(schedule.tier_of_flow.size(), entry->market.size());
        std::size_t member_total = 0;
        for (std::size_t t = 0; t < schedule.tiers.size(); ++t) {
          member_total += schedule.tiers[t].n_flows;
          if (t > 0) {
            EXPECT_LE(schedule.tiers[t - 1].rel_cost_lo,
                      schedule.tiers[t].rel_cost_lo);
          }
        }
        EXPECT_EQ(member_total, entry->market.size());
        const auto& rel = entry->market.relative_costs();
        for (std::size_t i = 0; i < schedule.tier_of_flow.size(); ++i) {
          const std::size_t t = schedule.tier_of_flow[i];
          ASSERT_LT(t, schedule.tiers.size());
          EXPECT_GE(rel[i], schedule.tiers[t].rel_cost_lo);
          EXPECT_LE(rel[i], schedule.tiers[t].rel_cost_hi);
        }
      }
    }
  }
}

TEST_F(SmokeSnapshotTest, RequoteAgreesWithTierMap) {
  const MarketEntry* entry = snap().markets.front().get();
  const Schedule& schedule = entry->schedule(0, snap().grid.max_bundles);
  for (std::size_t i = 0; i < entry->market.size(); ++i) {
    const Quote quote = requote_flow(*entry, schedule, i);
    EXPECT_EQ(quote.tier, schedule.tier_of_flow[i]);
    EXPECT_EQ(quote.price, schedule.tiers[quote.tier].price);
    EXPECT_EQ(quote.rel_cost, entry->market.relative_costs()[i]);
  }
  EXPECT_THROW(requote_flow(*entry, schedule, entry->market.size()),
               std::invalid_argument);
}

TEST_F(SmokeSnapshotTest, PriceFlowPicksContainingOrNearestTier) {
  const MarketEntry* entry = snap().markets.front().get();
  const Schedule& schedule = entry->schedule(0, snap().grid.max_bundles);
  // Re-pricing an existing flow's (q, d) must land it in its own tier:
  // its relative cost is inside that tier's span by construction.
  const auto& flows = entry->market.flows();
  for (std::size_t i = 0; i < flows.size(); i += 7) {
    const Quote quote = price_flow(*entry, schedule, flows[i].demand_mbps,
                                   flows[i].distance_miles, 0);
    const std::size_t t = quote.tier;
    EXPECT_GE(quote.rel_cost, schedule.tiers[t].rel_cost_lo);
    EXPECT_LE(quote.rel_cost, schedule.tiers[t].rel_cost_hi);
  }
  // A flow cheaper than every tier snaps to the cheapest one.
  const Quote low = price_flow(*entry, schedule, 1.0, 0.0, 0);
  EXPECT_EQ(low.tier, 0u);
  // A flow far beyond every tier snaps to the most expensive one.
  const Quote high = price_flow(*entry, schedule, 1.0, 1e7, 0);
  EXPECT_EQ(high.tier, schedule.tiers.size() - 1);
}

TEST_F(SmokeSnapshotTest, QueryValidationThrows) {
  const MarketEntry* entry = snap().markets.front().get();  // linear cost
  const Schedule& schedule = entry->schedule(0, 1);
  EXPECT_THROW(price_flow(*entry, schedule, 0.0, 10.0, 0),
               std::invalid_argument);  // q must be > 0
  EXPECT_THROW(price_flow(*entry, schedule, 1.0, -1.0, 0),
               std::invalid_argument);  // d must be >= 0
  EXPECT_THROW(price_flow(*entry, schedule, 1.0, 10.0, 1),
               std::invalid_argument);  // linear model has no classes
}

TEST_F(SmokeSnapshotTest, NonFiniteDemandOrDistanceIsRejected) {
  const MarketEntry* entry = snap().markets.front().get();
  const Schedule& schedule = entry->schedule(0, snap().grid.max_bundles);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(price_flow(*entry, schedule, 120.0, inf, 0),
               std::invalid_argument);
  EXPECT_THROW(price_flow(*entry, schedule, inf, 800.0, 0),
               std::invalid_argument);
  EXPECT_THROW(query_relative_cost(*entry, 120.0, inf, 0),
               std::invalid_argument);
}

TEST_F(SmokeSnapshotTest, VeryFarFlowGetsTheMostExpensiveTier) {
  // At d = 1e308 the flow's relative cost is so far past every span that
  // its gap to each tier rounds to the same value, and the lower-tier
  // tie-break used to quote it at the cheapest tier.
  const MarketEntry* entry = snap().markets.front().get();
  ASSERT_EQ(entry->key, "EU ISP/ced/linear");
  const Schedule& schedule = entry->schedule(0, snap().grid.max_bundles);
  const std::size_t top = schedule.tiers.size() - 1;
  EXPECT_EQ(price_flow(*entry, schedule, 120.0, 800.0, 0).tier, top);
  EXPECT_EQ(price_flow(*entry, schedule, 120.0, 1e308, 0).tier, top);
}

// Class-addressed queries against the discrete cost models: regional
// classes order metro < national < international, dest-type off-net
// costs exactly twice on-net (the paper's 1.0 / 2.0 relative costs).
TEST(SnapshotClasses, RegionalAndDestTypeClassesAddress) {
  auto grid = tiny_grid();
  grid.cost_kinds = {driver::CostKind::Regional, driver::CostKind::DestType};
  const auto snapshot = build_snapshot(grid);
  ASSERT_EQ(snapshot->markets.size(), 2u);

  const MarketEntry* regional = snapshot->markets[0].get();
  ASSERT_EQ(regional->cost, driver::CostKind::Regional);
  const double metro = query_relative_cost(*regional, 10.0, 100.0, 0);
  const double national = query_relative_cost(*regional, 10.0, 100.0, 1);
  const double intl = query_relative_cost(*regional, 10.0, 100.0, 2);
  EXPECT_LT(metro, national);
  EXPECT_LT(national, intl);
  EXPECT_THROW(query_relative_cost(*regional, 10.0, 100.0, 3),
               std::invalid_argument);

  const MarketEntry* dest = snapshot->markets[1].get();
  ASSERT_EQ(dest->cost, driver::CostKind::DestType);
  const double on_net = query_relative_cost(*dest, 10.0, 100.0, 0);
  const double off_net = query_relative_cost(*dest, 10.0, 100.0, 1);
  EXPECT_DOUBLE_EQ(off_net, 2.0 * on_net);
  EXPECT_THROW(query_relative_cost(*dest, 10.0, 100.0, 2),
               std::invalid_argument);
}

TEST(SnapshotBuild, RejectsSweepGrids) {
  EXPECT_THROW(build_snapshot(driver::alpha_sweep_grid()),
               std::invalid_argument);
}

TEST(SnapshotBuild, EpochAndSeedOverridesChangeResults) {
  auto grid = tiny_grid();
  SnapshotBuildOptions options;
  options.epoch = 7;
  const auto a = build_snapshot(grid, options);
  EXPECT_EQ(a->epoch, 7u);
  grid.base.seed = 43;
  const auto b = build_snapshot(grid, options);
  // Different dataset seed -> different calibration -> different capture.
  EXPECT_NE(a->markets[0]->schedule(0, 2).capture,
            b->markets[0]->schedule(0, 2).capture);
  // Same spec twice -> bit-identical capture (determinism).
  const auto c = build_snapshot(grid, options);
  EXPECT_EQ(b->markets[0]->schedule(0, 2).capture,
            c->markets[0]->schedule(0, 2).capture);
}

}  // namespace
}  // namespace manytiers::serve
