// Ablations for the design choices called out in DESIGN.md:
//  1. Profit-weighted tier boundaries: cost-ordered traversal (ours /
//     the paper's near-optimal heuristic) vs traversal by decreasing
//     potential profit (the naive reading of the token bucket).
//  2. Logit pricing: exact equal-markup fixed point vs the paper's
//     gradient-descent heuristic.
//  3. Optimal bundling: exact interval DP vs exhaustive set-partition
//     search (small instance), demonstrating they agree.
#include "bench_common.hpp"

#include <chrono>

#include "bundling/optimal.hpp"
#include "bundling/strategies.hpp"

int main() {
  using namespace manytiers;
  bench::header("Ablation — bundling and pricing design choices",
                "Cost-ordered vs profit-ordered tiers; exact vs gradient "
                "logit pricing; DP vs exhaustive optimal.");

  // --- 1. Tier traversal order ---
  std::cout << "1) Profit-weighted traversal order (CED, EU ISP):\n";
  const auto m = bench::linear_market(workload::DatasetKind::EuIsp,
                                      demand::DemandKind::ConstantElasticity);
  const auto pi = pricing::potential_profits(m);
  const auto opt = pricing::capture_series(m, pricing::Strategy::Optimal, 6);
  const auto ours = bundling::profit_weighted_series(pi, m.costs(), 6);
  const auto naive = bundling::token_bucket_series(pi, 6);
  util::TextTable order_table(
      {"Bundles", "Optimal", "Cost-ordered (ours)", "Profit-ordered"});
  for (std::size_t b = 1; b <= 6; ++b) {
    order_table.add_row(std::to_string(b),
                        {opt[b - 1], pricing::capture_of(m, ours[b - 1]),
                         pricing::capture_of(m, naive[b - 1])},
                        3);
  }
  order_table.print(std::cout);
  std::cout << "Cost-contiguous tiers sized by profit mass track the "
               "optimum; ordering flows by profit alone mixes cheap and\n"
               "expensive flows in the tail bundle and captures far less.\n\n";

  // --- 2. Logit pricing solvers ---
  std::cout << "2) Logit pricing: exact fixed point vs gradient heuristic:\n";
  const auto ml =
      bench::linear_market(workload::DatasetKind::EuIsp,
                           demand::DemandKind::Logit);
  const auto series =
      pricing::run_strategy_series(ml, pricing::Strategy::ProfitWeighted, 6);
  util::TextTable solver_table(
      {"Bundles", "Exact profit", "Gradient profit", "Rel. diff"});
  for (std::size_t b : {2u, 4u, 6u}) {
    const auto& res = series[b - 1];
    // Re-price the same bundles with the gradient heuristic.
    std::vector<double> bundle_v, bundle_c;
    for (const auto& bundle : res.pricing.bundles) {
      std::vector<double> v, c;
      for (const auto i : bundle) {
        v.push_back(ml.valuations()[i]);
        c.push_back(ml.costs()[i]);
      }
      bundle_v.push_back(ml.logit().bundle_valuation(v));
      bundle_c.push_back(ml.logit().bundle_cost(v, c));
    }
    const double exact =
        ml.logit().optimal_prices(bundle_v, bundle_c).profit;
    const double grad =
        ml.logit().gradient_prices(bundle_v, bundle_c).profit;
    solver_table.add_row(std::to_string(b),
                         {exact, grad, std::abs(exact - grad) / exact}, 6);
  }
  solver_table.print(std::cout);
  std::cout << "The heuristic lands on the same optimum; the fixed point "
               "is exact and orders of magnitude cheaper.\n\n";

  // --- 3. DP vs exhaustive ---
  std::cout << "3) Optimal bundling: interval DP vs exhaustive search "
               "(n = 12 flows, CED):\n";
  util::Rng rng(5);
  std::vector<double> v(12), c(12);
  for (std::size_t i = 0; i < 12; ++i) {
    v[i] = rng.uniform(0.5, 3.0);
    c[i] = rng.uniform(0.2, 5.0);
  }
  const demand::CedModel model(1.6);
  const auto evaluate = [&](const bundling::Bundling& b) {
    double total = 0.0;
    for (const auto& bundle : b) {
      std::vector<double> bv, bc;
      for (const auto i : bundle) {
        bv.push_back(v[i]);
        bc.push_back(c[i]);
      }
      const double price = model.bundle_price(bv, bc);
      for (std::size_t i = 0; i < bv.size(); ++i) {
        total += model.flow_profit(bv[i], bc[i], price);
      }
    }
    return total;
  };
  util::TextTable dp_table(
      {"Bundles", "DP profit", "Exhaustive profit", "DP us", "Exhaustive us"});
  for (std::size_t b : {2u, 3u, 4u}) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto dp = bundling::ced_optimal_series(v, c, 1.6, b).back();
    const auto t1 = std::chrono::steady_clock::now();
    const auto ex = bundling::exhaustive_optimal(12, b, evaluate);
    const auto t2 = std::chrono::steady_clock::now();
    const auto us = [](auto d) {
      return double(
          std::chrono::duration_cast<std::chrono::microseconds>(d).count());
    };
    dp_table.add_row(std::to_string(b),
                     {evaluate(dp), evaluate(ex), us(t1 - t0), us(t2 - t1)},
                     3);
  }
  dp_table.print(std::cout);
  std::cout << "Identical profit, polynomial time: the cost-contiguity "
               "property makes exhaustive search unnecessary.\n";
  return 0;
}
