#include "pricing/scenario.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "workload/generators.hpp"

namespace manytiers::pricing {
namespace {

workload::FlowSet small_flows() {
  workload::FlowSet fs("small");
  const double demands[] = {100.0, 40.0, 5.0, 70.0, 12.0};
  const double distances[] = {2.0, 30.0, 500.0, 80.0, 1500.0};
  for (int i = 0; i < 5; ++i) {
    workload::Flow f;
    f.demand_mbps = demands[i];
    f.distance_miles = distances[i];
    f.region = geo::classify_distance(distances[i]);
    fs.add(f);
  }
  return fs;
}

TEST(Market, CedCalibrationPopulatesEverything) {
  const auto cost = cost::make_linear_cost(0.2);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.valuations().size(), 5u);
  EXPECT_EQ(m.costs().size(), 5u);
  EXPECT_GT(m.gamma(), 0.0);
  EXPECT_DOUBLE_EQ(m.blended_price(), 20.0);
  EXPECT_NO_THROW(m.ced());
  EXPECT_THROW(m.logit(), std::logic_error);
  for (const double c : m.costs()) EXPECT_GT(c, 0.0);
}

TEST(Market, LogitCalibrationPopulatesEverything) {
  DemandSpec spec;
  spec.kind = demand::DemandKind::Logit;
  spec.alpha = 1.1;
  spec.no_purchase_share = 0.2;
  const auto cost = cost::make_linear_cost(0.2);
  const auto m = Market::calibrate(small_flows(), spec, *cost, 20.0);
  EXPECT_NO_THROW(m.logit());
  EXPECT_THROW(m.ced(), std::logic_error);
  EXPECT_NEAR(m.logit().market_size(), 227.0 / 0.8, 1e-9);
}

TEST(Market, CostsAreGammaTimesRelative) {
  const auto cost = cost::make_linear_cost(0.1);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(m.costs()[i], m.gamma() * m.relative_costs()[i], 1e-12);
  }
}

TEST(Market, DestTypeCostExpandsFlows) {
  const auto cost = cost::make_dest_type_cost(0.1);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.size(), 10u);  // each flow split into on-net/off-net
  EXPECT_EQ(m.cost_class_count(), 2u);
}

TEST(Market, RegionalCostYieldsThreeClasses) {
  const auto cost = cost::make_regional_cost(1.1);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.cost_class_count(), 3u);
  // All metro flows share a relative cost of 1.
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.flows()[i].region == geo::Region::Metro) {
      EXPECT_DOUBLE_EQ(m.relative_costs()[i], 1.0);
    }
  }
}

TEST(Market, ContinuousCostIsSingleClass) {
  const auto cost = cost::make_linear_cost(0.2);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.cost_class_count(), 1u);
}

TEST(Market, CalibrationValidates) {
  const auto cost = cost::make_linear_cost(0.2);
  EXPECT_THROW(
      Market::calibrate(workload::FlowSet("e"), DemandSpec{}, *cost, 20.0),
      std::invalid_argument);
  EXPECT_THROW(Market::calibrate(small_flows(), DemandSpec{}, *cost, 0.0),
               std::invalid_argument);
}

// The load-bearing calibration invariant, across every cost model, both
// demand models, and a spread of theta: re-optimizing a single blended
// bundle must recover exactly the observed blended rate P0.
enum class CostKind { Linear, Concave, Regional, DestType };

std::unique_ptr<cost::CostModel> make_cost(CostKind kind, double theta) {
  switch (kind) {
    case CostKind::Linear: return cost::make_linear_cost(theta);
    case CostKind::Concave: return cost::make_concave_cost(theta);
    case CostKind::Regional: return cost::make_regional_cost(1.0 + theta);
    case CostKind::DestType: return cost::make_dest_type_cost(0.05 + theta);
  }
  throw std::logic_error("unknown cost kind");
}

class CalibrationInvariant
    : public ::testing::TestWithParam<
          std::tuple<CostKind, demand::DemandKind, double>> {};

TEST_P(CalibrationInvariant, BlendedRateIsSingleBundleOptimum) {
  const auto [cost_kind, demand_kind, theta] = GetParam();
  const auto flows = workload::generate_eu_isp({.seed = 21, .n_flows = 60});
  DemandSpec spec;
  spec.kind = demand_kind;
  const auto model = make_cost(cost_kind, theta);
  const double p0 = 20.0;
  const auto m = Market::calibrate(flows, spec, *model, p0);

  switch (demand_kind) {
    case demand::DemandKind::ConstantElasticity:
      EXPECT_NEAR(m.ced().bundle_price(m.valuations(), m.costs()), p0,
                  1e-6 * p0);
      break;
    case demand::DemandKind::Logit: {
      const std::vector<double> vb{m.logit().bundle_valuation(m.valuations())};
      const std::vector<double> cb{
          m.logit().bundle_cost(m.valuations(), m.costs())};
      EXPECT_NEAR(m.logit().optimal_prices(vb, cb).prices[0], p0, 1e-5 * p0);
      break;
    }
  }
  // And demand at P0 reproduces the observed flows.
  const std::vector<double> prices(m.size(), p0);
  switch (demand_kind) {
    case demand::DemandKind::ConstantElasticity:
      for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_NEAR(m.ced().quantity(m.valuations()[i], p0),
                    m.flows()[i].demand_mbps,
                    1e-6 * m.flows()[i].demand_mbps);
      }
      break;
    case demand::DemandKind::Logit: {
      const auto q = m.logit().quantities(m.valuations(), prices);
      for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_NEAR(q[i], m.flows()[i].demand_mbps,
                    1e-6 * m.flows()[i].demand_mbps);
      }
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CalibrationInvariant,
    ::testing::Combine(
        ::testing::Values(CostKind::Linear, CostKind::Concave,
                          CostKind::Regional, CostKind::DestType),
        ::testing::Values(demand::DemandKind::ConstantElasticity,
                          demand::DemandKind::Logit),
        ::testing::Values(0.05, 0.2, 0.5)));

TEST(Market, WorksOnGeneratedDatasets) {
  const auto flows = workload::generate_eu_isp({.seed = 1, .n_flows = 100});
  const auto cost = cost::make_linear_cost(0.2);
  const auto m = Market::calibrate(flows, DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.size(), 100u);
  EXPECT_GT(m.gamma(), 0.0);
  // Costs must be below the blended price on average (the ISP profits).
  double mean_cost = 0.0;
  for (const double c : m.costs()) mean_cost += c;
  mean_cost /= double(m.size());
  EXPECT_LT(mean_cost, 20.0);
}

}  // namespace
}  // namespace manytiers::pricing
