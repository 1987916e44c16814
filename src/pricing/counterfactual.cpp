#include "pricing/counterfactual.hpp"

#include <stdexcept>

#include "bundling/optimal.hpp"
#include "bundling/strategies.hpp"

namespace manytiers::pricing {

std::string_view to_string(Strategy s) {
  switch (s) {
    case Strategy::Optimal: return "Optimal";
    case Strategy::DemandWeighted: return "Demand-weighted";
    case Strategy::CostWeighted: return "Cost-weighted";
    case Strategy::ProfitWeighted: return "Profit-weighted";
    case Strategy::CostDivision: return "Cost division";
    case Strategy::IndexDivision: return "Index division";
    case Strategy::ClassAwareProfitWeighted:
      return "Class-aware profit-weighted";
  }
  throw std::invalid_argument("unknown strategy");
}

std::vector<Strategy> figure8_strategies() {
  return {Strategy::Optimal,         Strategy::CostWeighted,
          Strategy::ProfitWeighted,  Strategy::DemandWeighted,
          Strategy::CostDivision,    Strategy::IndexDivision};
}

std::vector<Strategy> figure9_strategies() {
  return {Strategy::Optimal, Strategy::CostWeighted, Strategy::ProfitWeighted,
          Strategy::CostDivision, Strategy::IndexDivision};
}

StrategyResult run_strategy(const Market& market, Strategy strategy,
                            std::size_t n_bundles) {
  // Element b-1 of the series up to b: the same bundling capture_series,
  // the batch report and the serve schedules evaluate at b tiers.
  StrategyResult res;
  res.strategy = strategy;
  res.requested_bundles = n_bundles;
  res.pricing = price_bundles(
      market, bundling_series(market, strategy, n_bundles).back());
  res.capture = profit_capture(market, res.pricing.profit);
  return res;
}

// The one switch from a Strategy to bundlings. Each case is a series
// that shares the per-strategy invariant work across bundle counts: the
// Optimal strategy fills its interval-DP table once instead of once per
// b, and the weighted/division heuristics sort once.
std::vector<bundling::Bundling> bundling_series(const Market& market,
                                                Strategy strategy,
                                                std::size_t max_bundles) {
  if (max_bundles == 0) {
    throw std::invalid_argument("bundling_series: need at least one bundle");
  }
  const auto& costs = market.costs();
  switch (strategy) {
    case Strategy::Optimal:
      switch (market.demand_spec().kind) {
        case demand::DemandKind::ConstantElasticity:
          return bundling::ced_optimal_series(market.valuations(), costs,
                                              market.demand_spec().alpha,
                                              max_bundles);
        case demand::DemandKind::Logit:
          return bundling::logit_optimal_series(market.valuations(), costs,
                                                market.demand_spec().alpha,
                                                max_bundles);
      }
      throw std::logic_error("bundling_series: unknown demand kind");
    case Strategy::DemandWeighted:
      return bundling::demand_weighted_series(market.flows().demands(),
                                              max_bundles);
    case Strategy::CostWeighted:
      return bundling::cost_weighted_series(costs, max_bundles);
    case Strategy::ProfitWeighted:
      return bundling::profit_weighted_series(potential_profits(market), costs,
                                              max_bundles);
    case Strategy::CostDivision:
      return bundling::cost_division_series(costs, max_bundles);
    case Strategy::IndexDivision:
      return bundling::index_division_series(costs, max_bundles);
    case Strategy::ClassAwareProfitWeighted: {
      // The class-aware strategy cannot produce fewer bundles than
      // classes; report the best feasible coarser bundling instead (plain
      // profit-weighted) so the series starts at b = 1 like the paper's
      // figures. The potential-profit vector is shared across the series.
      // A calibrated market has at least one flow, so at least one class.
      const auto profits = potential_profits(market);
      auto out =
          bundling::profit_weighted_series(profits, costs, max_bundles);
      for (std::size_t b = market.cost_class_count(); b <= max_bundles; ++b) {
        out[b - 1] = bundling::class_aware_profit_weighted(
            profits, costs, market.cost_classes(), b);
      }
      return out;
    }
  }
  throw std::invalid_argument("unknown strategy");
}

std::vector<double> capture_series(const Market& market, Strategy strategy,
                                   std::size_t max_bundles) {
  // A zero-length series used to be returned silently, and downstream
  // min/max envelope code indexed into it; fail loudly instead.
  if (max_bundles == 0) {
    throw std::invalid_argument("capture_series: need at least one bundle");
  }
  const auto bundlings = bundling_series(market, strategy, max_bundles);
  std::vector<double> out;
  out.reserve(max_bundles);
  for (const auto& bundling : bundlings) {
    out.push_back(
        profit_capture(market, price_bundles(market, bundling).profit));
  }
  return out;
}

std::vector<StrategyResult> run_strategy_series(const Market& market,
                                                Strategy strategy,
                                                std::size_t max_bundles) {
  if (max_bundles == 0) {
    throw std::invalid_argument(
        "run_strategy_series: need at least one bundle");
  }
  auto bundlings = bundling_series(market, strategy, max_bundles);
  std::vector<StrategyResult> out;
  out.reserve(max_bundles);
  for (std::size_t b = 1; b <= max_bundles; ++b) {
    StrategyResult res;
    res.strategy = strategy;
    res.requested_bundles = b;
    res.pricing = price_bundles(market, bundlings[b - 1]);
    res.capture = profit_capture(market, res.pricing.profit);
    out.push_back(std::move(res));
  }
  return out;
}

}  // namespace manytiers::pricing
