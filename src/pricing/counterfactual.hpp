// Counterfactual driver: run a bundling strategy at a tier count and
// report profit capture (the machinery behind paper Figs. 8-16).
//
// One evaluation path: bundling_series is the only place a Strategy
// becomes bundlings, one per tier count 1..B. Everything else prices
// its elements — capture_series and run_strategy_series the whole
// series, run_strategy the last element of the series up to b — so a
// strategy answers the same at b tiers whichever entry point asks.
#pragma once

#include <string_view>
#include <vector>

#include "pricing/engine.hpp"

namespace manytiers::pricing {

enum class Strategy {
  Optimal,          // exact optimal partition (interval DP; paper: search)
  DemandWeighted,   // token bucket by observed demand
  CostWeighted,     // token bucket by 1/cost
  ProfitWeighted,   // token bucket by potential profit
  CostDivision,     // equal-width cost ranges
  IndexDivision,    // equal-count cost-rank groups
  ClassAwareProfitWeighted,  // profit-weighted, never mixing cost classes
};

std::string_view to_string(Strategy s);

// The strategy lineups of the paper's figures: Fig. 8 (CED) shows all six
// base strategies; Fig. 9 (logit) drops demand-weighted (it coincides with
// profit-weighted there, Eq. 13).
std::vector<Strategy> figure8_strategies();
std::vector<Strategy> figure9_strategies();

struct StrategyResult {
  Strategy strategy = Strategy::Optimal;
  std::size_t requested_bundles = 0;
  PricedBundling pricing;       // bundles, prices, profit
  double capture = 0.0;
};

// Price element n_bundles-1 of bundling_series(market, strategy,
// n_bundles) and report capture: equal to capture_series(...)[n_bundles
// - 1], class-aware fallback below the class count included.
StrategyResult run_strategy(const Market& market, Strategy strategy,
                            std::size_t n_bundles);

// One bundling per bundle count in 1..max_bundles, sharing the per-
// strategy invariant work across the series (the Optimal strategy fills
// its interval-DP table once, the heuristics sort once). Element b-1
// does not depend on max_bundles. ClassAwareProfitWeighted falls back to
// plain profit-weighted below the class count so the series starts at
// b = 1 like the paper's figures.
std::vector<bundling::Bundling> bundling_series(const Market& market,
                                                Strategy strategy,
                                                std::size_t max_bundles);

// Capture series for one strategy at 1..max_bundles tiers.
std::vector<double> capture_series(const Market& market, Strategy strategy,
                                   std::size_t max_bundles);

// Full priced results for one strategy at 1..max_bundles tiers — the
// same bundlings and prices capture_series evaluates, with the
// PricedBundling kept instead of reduced to the capture scalar. This is
// what the serve snapshot builds tier schedules from, so the query
// daemon and the batch driver answer from one pricing truth.
std::vector<StrategyResult> run_strategy_series(const Market& market,
                                                Strategy strategy,
                                                std::size_t max_bundles);

}  // namespace manytiers::pricing
