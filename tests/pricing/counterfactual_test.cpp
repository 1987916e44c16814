#include "pricing/counterfactual.hpp"

#include <gtest/gtest.h>

#include "bundling/optimal.hpp"
#include "obs/registry.hpp"
#include "workload/generators.hpp"

namespace manytiers::pricing {
namespace {

Market eu_market(demand::DemandKind kind) {
  const auto flows = workload::generate_eu_isp({.seed = 42, .n_flows = 120});
  const auto cost = cost::make_linear_cost(0.2);
  DemandSpec spec;
  spec.kind = kind;
  spec.alpha = 1.1;
  return Market::calibrate(flows, spec, *cost, 20.0);
}

TEST(StrategyNames, AreDistinctAndReadable) {
  EXPECT_EQ(to_string(Strategy::Optimal), "Optimal");
  EXPECT_EQ(to_string(Strategy::CostDivision), "Cost division");
  EXPECT_EQ(to_string(Strategy::ClassAwareProfitWeighted),
            "Class-aware profit-weighted");
}

TEST(FigureLineups, MatchThePaper) {
  EXPECT_EQ(figure8_strategies().size(), 6u);
  EXPECT_EQ(figure9_strategies().size(), 5u);
  // Fig. 9 omits demand-weighted.
  for (const auto s : figure9_strategies()) {
    EXPECT_NE(s, Strategy::DemandWeighted);
  }
}

class StrategySweep
    : public ::testing::TestWithParam<std::tuple<demand::DemandKind, Strategy>> {
};

TEST_P(StrategySweep, ProducesValidCapturesInRange) {
  const auto [kind, strategy] = GetParam();
  const auto m = eu_market(kind);
  const auto series = capture_series(m, strategy, 6);
  ASSERT_EQ(series.size(), 6u);
  for (const double c : series) {
    EXPECT_GE(c, -0.05);  // heuristics can be mildly below the baseline
    EXPECT_LE(c, 1.0 + 1e-9);
  }
  // One bundle cannot beat the calibrated blended rate.
  EXPECT_NEAR(series[0], 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StrategySweep,
    ::testing::Combine(
        ::testing::Values(demand::DemandKind::ConstantElasticity,
                          demand::DemandKind::Logit),
        ::testing::Values(Strategy::Optimal, Strategy::DemandWeighted,
                          Strategy::CostWeighted, Strategy::ProfitWeighted,
                          Strategy::CostDivision, Strategy::IndexDivision)));

TEST(Counterfactual, OptimalDominatesEveryHeuristic) {
  const auto m = eu_market(demand::DemandKind::ConstantElasticity);
  for (std::size_t b = 1; b <= 5; ++b) {
    const double best = run_strategy(m, Strategy::Optimal, b).capture;
    for (const auto s :
         {Strategy::DemandWeighted, Strategy::CostWeighted,
          Strategy::ProfitWeighted, Strategy::CostDivision,
          Strategy::IndexDivision}) {
      EXPECT_GE(best, run_strategy(m, s, b).capture - 1e-9)
          << to_string(s) << " at " << b;
    }
  }
}

TEST(Counterfactual, OptimalCaptureIsMonotoneInBundles) {
  const auto m = eu_market(demand::DemandKind::ConstantElasticity);
  const auto series = capture_series(m, Strategy::Optimal, 8);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i], series[i - 1] - 1e-9);
  }
}

TEST(Counterfactual, PaperHeadline_FewBundlesCaptureMostProfit) {
  // The paper's main result: 3-4 well-chosen bundles capture 90-95% of
  // the profit of infinitely many tiers.
  for (const auto kind : {demand::DemandKind::ConstantElasticity,
                          demand::DemandKind::Logit}) {
    const auto m = eu_market(kind);
    EXPECT_GE(run_strategy(m, Strategy::Optimal, 4).capture, 0.85);
  }
}

TEST(Counterfactual, RequestedBundlesRecorded) {
  const auto m = eu_market(demand::DemandKind::ConstantElasticity);
  const auto res = run_strategy(m, Strategy::ProfitWeighted, 3);
  EXPECT_EQ(res.requested_bundles, 3u);
  EXPECT_LE(res.pricing.bundles.size(), 3u);
  EXPECT_EQ(res.strategy, Strategy::ProfitWeighted);
}

TEST(Counterfactual, ClassAwareWorksOnDestTypeMarket) {
  const auto flows = workload::generate_eu_isp({.seed = 42, .n_flows = 60});
  const auto cost = cost::make_dest_type_cost(0.1);
  const auto m = Market::calibrate(flows, DemandSpec{}, *cost, 20.0);
  const auto res = run_strategy(m, Strategy::ClassAwareProfitWeighted, 3);
  // No bundle mixes on-net and off-net flows.
  for (const auto& bundle : res.pricing.bundles) {
    const auto cls = m.cost_classes()[bundle[0]];
    for (const auto i : bundle) EXPECT_EQ(m.cost_classes()[i], cls);
  }
}

TEST(Counterfactual, ClassAwareSeriesFallsBackBelowClassCount) {
  const auto flows = workload::generate_eu_isp({.seed = 42, .n_flows = 60});
  const auto cost = cost::make_dest_type_cost(0.1);
  const auto m = Market::calibrate(flows, DemandSpec{}, *cost, 20.0);
  const auto series = capture_series(m, Strategy::ClassAwareProfitWeighted, 4);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_NEAR(series[0], 0.0, 1e-6);  // falls back to one plain bundle
}

TEST(CaptureSeries, MatchesPerCountRunStrategyExactly) {
  // The series shares sorts, DP tables, and cached baseline profits
  // across bundle counts; run_strategy(b) evaluates the series up to b
  // only, so this pins element b-1 as independent of the series length
  // — the captures must be the exact same doubles.
  for (const auto kind : {demand::DemandKind::ConstantElasticity,
                          demand::DemandKind::Logit}) {
    const auto m = eu_market(kind);
    for (const auto s :
         {Strategy::Optimal, Strategy::DemandWeighted, Strategy::CostWeighted,
          Strategy::ProfitWeighted, Strategy::CostDivision,
          Strategy::IndexDivision}) {
      const auto series = capture_series(m, s, 6);
      ASSERT_EQ(series.size(), 6u);
      for (std::size_t b = 1; b <= 6; ++b) {
        EXPECT_EQ(series[b - 1], run_strategy(m, s, b).capture)
            << to_string(s) << " b=" << b;
      }
    }
  }
}

TEST(CaptureSeries, ClassAwareMatchesPerCountWithFallback) {
  // Below the class count the class-aware strategy falls back to plain
  // profit-weighted; run_strategy answers there too (it used to throw
  // "need at least one bundle per class" at b = 1 while capture_series
  // reported the fallback), and with the same doubles.
  const auto flows = workload::generate_eu_isp({.seed = 42, .n_flows = 60});
  const auto cost = cost::make_dest_type_cost(0.1);
  const auto m = Market::calibrate(flows, DemandSpec{}, *cost, 20.0);
  ASSERT_GT(m.cost_class_count(), 1u);
  const auto series = capture_series(m, Strategy::ClassAwareProfitWeighted, 5);
  for (std::size_t b = 1; b <= 5; ++b) {
    EXPECT_EQ(series[b - 1],
              run_strategy(m, Strategy::ClassAwareProfitWeighted, b).capture)
        << "b=" << b;
  }
}

TEST(CaptureSeries, OptimalCostsExactlyOneDpTableFill) {
  const obs::ScopedEnable metrics;
  obs::Counter& fills =
      obs::Registry::instance().counter("bundling.dp_fills");
  for (const auto kind : {demand::DemandKind::ConstantElasticity,
                          demand::DemandKind::Logit}) {
    const auto m = eu_market(kind);
    fills.reset();
    capture_series(m, Strategy::Optimal, 8);
    EXPECT_EQ(fills.value(), 1u);
  }
}

TEST(CaptureSeries, RejectsZeroBundles) {
  // Regression: a zero-length series used to be returned silently and
  // sweep/report code indexed past its end.
  const auto m = eu_market(demand::DemandKind::ConstantElasticity);
  EXPECT_THROW(capture_series(m, Strategy::Optimal, 0),
               std::invalid_argument);
}

TEST(Counterfactual, RejectsZeroBundles) {
  const auto m = eu_market(demand::DemandKind::ConstantElasticity);
  EXPECT_THROW(run_strategy(m, Strategy::Optimal, 0), std::invalid_argument);
}

}  // namespace
}  // namespace manytiers::pricing
