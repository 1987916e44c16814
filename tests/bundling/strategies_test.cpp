#include "bundling/strategies.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace manytiers::bundling {
namespace {

// Sort bundle contents for order-insensitive comparisons.
Bundling normalized(Bundling b) {
  for (auto& bundle : b) std::sort(bundle.begin(), bundle.end());
  return b;
}

TEST(TokenBucket, PaperExampleDemandWeighted) {
  // Paper §4.2.1: demands {30, 10, 10, 10} into two bundles ->
  // {30} and {10, 10, 10}.
  const std::vector<double> demands{30.0, 10.0, 10.0, 10.0};
  const auto b = normalized(demand_weighted_series(demands, 2).back());
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], (Bundle{0}));
  EXPECT_EQ(b[1], (Bundle{1, 2, 3}));
}

TEST(TokenBucket, SingleBundleTakesEverything) {
  const std::vector<double> w{5.0, 1.0, 2.0};
  const auto b = token_bucket_series(w, 1).back();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].size(), 3u);
}

TEST(TokenBucket, MoreBundlesThanFlowsDropsEmpties) {
  const std::vector<double> w{1.0, 2.0};
  const auto b = token_bucket_series(w, 6).back();
  EXPECT_EQ(b.size(), 2u);
  EXPECT_NO_THROW(validate(b, 2));
}

TEST(TokenBucket, AlwaysProducesValidPartition) {
  const std::vector<double> w{9.0, 3.5, 2.0, 2.0, 1.0, 0.25, 0.25, 14.0};
  for (std::size_t n = 1; n <= 8; ++n) {
    const auto b = token_bucket_series(w, n).back();
    EXPECT_NO_THROW(validate(b, w.size())) << n << " bundles";
    EXPECT_LE(b.size(), n);
  }
}

TEST(TokenBucket, EqualWeightsSplitEvenly) {
  const std::vector<double> w(9, 1.0);
  const auto b = token_bucket_series(w, 3).back();
  ASSERT_EQ(b.size(), 3u);
  for (const auto& bundle : b) EXPECT_EQ(bundle.size(), 3u);
}

TEST(TokenBucket, OverflowChargesNextBundle) {
  // Total weight 23, per-bundle budget 23/3. The giant flow lands in
  // bundle 0 and its deficit cascades: bundle 1 opens only via the
  // "empty bundle" rule and immediately closes, leaving bundle 2 with
  // the remaining budget for the last two flows.
  const std::vector<double> w{20.0, 1.0, 1.0, 1.0};
  const auto b = token_bucket_series(w, 3).back();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], (Bundle{0}));
  EXPECT_EQ(b[1], (Bundle{1}));
  EXPECT_EQ(b[2], (Bundle{2, 3}));
  EXPECT_NO_THROW(validate(b, 4));
}

TEST(TokenBucket, Validates) {
  EXPECT_THROW(token_bucket_series({}, 2), std::invalid_argument);
  EXPECT_THROW(token_bucket_series(std::vector<double>{1.0, -1.0}, 2),
               std::invalid_argument);
  EXPECT_THROW(token_bucket_series(std::vector<double>{1.0}, 0),
               std::invalid_argument);
}

TEST(CostWeighted, CheapFlowsGetTheirOwnBundles) {
  // Weights are 1/cost, so local (cheap) flows fill the first bundle.
  const std::vector<double> costs{0.1, 10.0, 10.0, 10.0, 10.0};
  const auto b = normalized(cost_weighted_series(costs, 2).back());
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], (Bundle{0}));
  EXPECT_EQ(b[1], (Bundle{1, 2, 3, 4}));
}

TEST(ProfitWeighted, TiersAreContiguousInCost) {
  // Equal profit mass per tier along the cost axis: the first tier takes
  // the cheap flows holding half the potential profit.
  const std::vector<double> pi{1.0, 8.0, 1.0, 1.0, 1.0};
  const std::vector<double> c{5.0, 1.0, 4.0, 2.0, 3.0};
  const auto b = normalized(profit_weighted_series(pi, c, 2).back());
  ASSERT_EQ(b.size(), 2u);
  // Cost order: 1(c=1, pi=8), 3(c=2), 4(c=3), 2(c=4), 0(c=5).
  // Budget 6 each: flow 1 fills tier 0 (deficit 2 charged ahead); the
  // rest land in tier 1.
  EXPECT_EQ(b[0], (Bundle{1}));
  EXPECT_EQ(b[1], (Bundle{0, 2, 3, 4}));
}

TEST(ProfitWeighted, NeverInterleavesCostRanges) {
  const std::vector<double> pi{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const std::vector<double> c{8.0, 1.0, 6.0, 2.0, 5.0, 3.0, 7.0, 4.0};
  for (std::size_t n = 1; n <= 4; ++n) {
    const auto b = profit_weighted_series(pi, c, n).back();
    EXPECT_NO_THROW(validate(b, pi.size()));
    for (std::size_t x = 0; x < b.size(); ++x) {
      for (std::size_t y = x + 1; y < b.size(); ++y) {
        double xmax = 0.0, ymin = 1e300;
        for (const auto i : b[x]) xmax = std::max(xmax, c[i]);
        for (const auto i : b[y]) ymin = std::min(ymin, c[i]);
        EXPECT_LE(xmax, ymin) << "bundles " << x << "," << y << " n=" << n;
      }
    }
  }
}

TEST(ProfitWeighted, ValidatesSizes) {
  EXPECT_THROW(
      profit_weighted_series(std::vector<double>{1.0},
                             std::vector<double>{1.0, 2.0}, 2),
      std::invalid_argument);
}

TEST(TokenBucketOrdered, RespectsExplicitOrder) {
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0};
  const std::vector<std::size_t> order{3, 2, 1, 0};
  const auto b = token_bucket_ordered(w, order, 2);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], (Bundle{3, 2}));
  EXPECT_EQ(b[1], (Bundle{1, 0}));
}

TEST(TokenBucketOrdered, ValidatesOrder) {
  const std::vector<double> w{1.0, 1.0};
  EXPECT_THROW(token_bucket_ordered(w, std::vector<std::size_t>{0}, 2),
               std::invalid_argument);
  EXPECT_THROW(token_bucket_ordered(w, std::vector<std::size_t>{0, 9}, 2),
               std::invalid_argument);
}

TEST(CostDivision, PaperExampleEqualWidthRanges) {
  // Paper §4.2.1: max cost $10, two bundles -> [0, 5) and [5, 10].
  const std::vector<double> costs{1.0, 4.99, 5.0, 10.0};
  const auto b = cost_division_series(costs, 2).back();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(normalized(b)[0], (Bundle{0, 1}));
  EXPECT_EQ(normalized(b)[1], (Bundle{2, 3}));
}

TEST(CostDivision, DropsEmptyRanges) {
  // All costs cluster at the top: lower ranges are empty.
  const std::vector<double> costs{9.0, 9.5, 10.0};
  const auto b = cost_division_series(costs, 4).back();
  EXPECT_EQ(b.size(), 1u);
  EXPECT_NO_THROW(validate(b, 3));
}

TEST(CostDivision, ProducesValidPartitions) {
  const std::vector<double> costs{0.5, 2.0, 3.3, 7.7, 9.9, 1.1};
  for (std::size_t n = 1; n <= 6; ++n) {
    EXPECT_NO_THROW(
        validate(cost_division_series(costs, n).back(), costs.size()));
  }
}

TEST(IndexDivision, SplitsRanksEvenly) {
  const std::vector<double> costs{5.0, 1.0, 3.0, 2.0, 4.0, 6.0};
  const auto b = index_division_series(costs, 3).back();
  ASSERT_EQ(b.size(), 3u);
  // Sorted by cost: 1(1.0) 3(2.0) 2(3.0) 4(4.0) 0(5.0) 5(6.0).
  EXPECT_EQ(normalized(b)[0], (Bundle{1, 3}));
  EXPECT_EQ(normalized(b)[1], (Bundle{2, 4}));
  EXPECT_EQ(normalized(b)[2], (Bundle{0, 5}));
}

TEST(IndexDivision, UnlikeCostDivisionIgnoresGaps) {
  // Costs with a huge gap: cost division lumps the low three together,
  // index division splits purely by rank.
  const std::vector<double> costs{1.0, 1.1, 1.2, 100.0};
  const auto by_cost = cost_division_series(costs, 2).back();
  const auto by_rank = index_division_series(costs, 2).back();
  EXPECT_EQ(normalized(by_cost)[0], (Bundle{0, 1, 2}));
  EXPECT_EQ(normalized(by_rank)[0], (Bundle{0, 1}));
}

TEST(IndexDivision, MoreBundlesThanFlows) {
  const std::vector<double> costs{2.0, 1.0};
  const auto b = index_division_series(costs, 5).back();
  EXPECT_EQ(b.size(), 2u);
  EXPECT_NO_THROW(validate(b, 2));
}

TEST(ClassAware, NeverMixesClasses) {
  const std::vector<double> pi{5.0, 4.0, 3.0, 2.0, 1.0, 0.5};
  const std::vector<double> c{1.0, 2.0, 1.0, 2.0, 1.0, 2.0};
  const std::vector<std::size_t> cls{0, 1, 0, 1, 0, 1};
  const auto b = class_aware_profit_weighted(pi, c, cls, 4);
  EXPECT_NO_THROW(validate(b, pi.size()));
  for (const auto& bundle : b) {
    for (const std::size_t i : bundle) {
      EXPECT_EQ(cls[i], cls[bundle[0]]);
    }
  }
}

TEST(ClassAware, UsesAllRequestedBundlesAcrossClasses) {
  const std::vector<double> pi{10.0, 10.0, 10.0, 1.0, 1.0, 1.0};
  const std::vector<double> c{1.0, 1.5, 2.0, 3.0, 3.5, 4.0};
  const std::vector<std::size_t> cls{0, 0, 0, 1, 1, 1};
  const auto b = class_aware_profit_weighted(pi, c, cls, 4);
  EXPECT_NO_THROW(validate(b, pi.size()));
  // The heavier class gets the extra bundles.
  std::size_t class0_bundles = 0;
  for (const auto& bundle : b) {
    if (cls[bundle[0]] == 0) ++class0_bundles;
  }
  EXPECT_GE(class0_bundles, 2u);
}

TEST(ClassAware, RequiresOneBundlePerClass) {
  const std::vector<double> pi{1.0, 1.0, 1.0};
  const std::vector<double> c{1.0, 2.0, 3.0};
  const std::vector<std::size_t> cls{0, 1, 2};
  EXPECT_THROW(class_aware_profit_weighted(pi, c, cls, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(class_aware_profit_weighted(pi, c, cls, 3));
}

TEST(ClassAware, SingleClassBehavesLikeProfitWeighted) {
  const std::vector<double> pi{8.0, 2.0, 1.0, 1.0};
  const std::vector<double> c{1.0, 2.0, 3.0, 4.0};
  const std::vector<std::size_t> cls(4, 0);
  const auto a = normalized(class_aware_profit_weighted(pi, c, cls, 2));
  const auto b = normalized(profit_weighted_series(pi, c, 2).back());
  EXPECT_EQ(a, b);
}

TEST(StrategySeries, EveryVariantMatchesPerCountCalls) {
  // The series variants share one sort across bundle counts; element b-1
  // must still be exactly what the series up to b alone ends with (the
  // bundling run_strategy(b) prices), bundle for bundle.
  const std::vector<double> weights{9.0, 3.5, 2.0, 2.0, 1.0, 0.25, 0.25, 14.0};
  const std::vector<double> costs{0.8, 4.0, 2.5, 1.1, 6.0, 3.3, 0.4, 5.2};
  const std::size_t max_bundles = 8;

  const auto tb = token_bucket_series(weights, max_bundles);
  const auto dw = demand_weighted_series(weights, max_bundles);
  const auto cw = cost_weighted_series(costs, max_bundles);
  const auto pw = profit_weighted_series(weights, costs, max_bundles);
  const auto cd = cost_division_series(costs, max_bundles);
  const auto id = index_division_series(costs, max_bundles);
  ASSERT_EQ(tb.size(), max_bundles);
  for (std::size_t b = 1; b <= max_bundles; ++b) {
    EXPECT_EQ(tb[b - 1], token_bucket_series(weights, b).back())
        << "token_bucket b=" << b;
    EXPECT_EQ(dw[b - 1], demand_weighted_series(weights, b).back())
        << "demand b=" << b;
    EXPECT_EQ(cw[b - 1], cost_weighted_series(costs, b).back())
        << "cost b=" << b;
    EXPECT_EQ(pw[b - 1], profit_weighted_series(weights, costs, b).back())
        << "profit b=" << b;
    EXPECT_EQ(cd[b - 1], cost_division_series(costs, b).back())
        << "cost_div b=" << b;
    EXPECT_EQ(id[b - 1], index_division_series(costs, b).back())
        << "index_div b=" << b;
  }
}

TEST(StrategySeries, Validate) {
  const std::vector<double> w{1.0, 2.0};
  EXPECT_THROW(token_bucket_series(w, 0), std::invalid_argument);
  EXPECT_THROW(cost_weighted_series(std::vector<double>{}, 2),
               std::invalid_argument);
  EXPECT_THROW(profit_weighted_series(w, std::vector<double>{1.0}, 2),
               std::invalid_argument);
  EXPECT_THROW(cost_division_series(w, 0), std::invalid_argument);
  EXPECT_THROW(index_division_series(w, 0), std::invalid_argument);
}

TEST(ClassAware, ValidatesSizes) {
  EXPECT_THROW(class_aware_profit_weighted(std::vector<double>{1.0},
                                           std::vector<double>{1.0},
                                           std::vector<std::size_t>{0, 1}, 2),
               std::invalid_argument);
  EXPECT_THROW(class_aware_profit_weighted(std::vector<double>{1.0, 1.0},
                                           std::vector<double>{1.0},
                                           std::vector<std::size_t>{0, 1}, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace manytiers::bundling
