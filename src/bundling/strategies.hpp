// Heuristic bundling strategies (paper §4.2.1).
//
// The weighted strategies all share the paper's token-bucket algorithm:
// give each of the B bundles an equal share of the total weight, sort the
// flows by decreasing weight, and pour them into bundles in order,
// carrying overflow into the next bundle. They differ only in the weight:
//   demand-weighted  w_i = q_i
//   cost-weighted    w_i = 1 / c_i   (cheap/local flows fill bundles first)
//   profit-weighted  w_i = potential profit of flow i (Eq. 12 / Eq. 13)
// The division strategies ignore demand entirely:
//   cost division    equal-width cost ranges over [0, c_max]
//   index division   equal-count groups of the cost-sorted flows
// The class-aware variant (used with the destination-type cost model,
// §4.3.1) never mixes flows of different cost classes in one bundle.
//
// Every strategy is a series: element b-1 is the strategy's bundling at
// b bundles, for b = 1..max_bundles. pricing::bundling_series is the one
// switch that picks a series per pricing::Strategy; a single tier count
// b is element b-1 of the series up to b.
#pragma once

#include <span>
#include <string_view>

#include "bundling/bundle.hpp"

namespace manytiers::bundling {

// The paper's token-bucket weighting algorithm, spending the weights in
// an explicit traversal `order`: each of the `n_bundles` buckets gets
// budget sum(weight)/B; each flow goes to the first bucket that is empty
// or has budget left, and a bucket's deficit is charged to the next
// bucket. Empty buckets are dropped. The weighted series below run it
// over the flows ordered by decreasing weight (profit-weighted: by
// increasing cost).
Bundling token_bucket_ordered(std::span<const double> weights,
                              std::span<const std::size_t> order,
                              std::size_t n_bundles);

// Profit-weighted bundling that never mixes cost classes: the bundle
// budget is split over classes proportionally to their total weight, and
// the cost-ordered profit-weighted bucket runs within each class.
// Requires n_bundles >= number of distinct classes.
Bundling class_aware_profit_weighted(
    std::span<const double> potential_profits, std::span<const double> costs,
    std::span<const std::size_t> class_of_flow, std::size_t n_bundles);

// --- Series ---
//
// The per-b bucket/division fill is O(n), so sharing the one O(n log n)
// sort (and derived weights) across the series is what makes
// capture-vs-bundle-count curves cheap.

// Token bucket over the flows sorted by decreasing weight.
std::vector<Bundling> token_bucket_series(std::span<const double> weights,
                                          std::size_t max_bundles);
std::vector<Bundling> demand_weighted_series(std::span<const double> demands,
                                             std::size_t max_bundles);
std::vector<Bundling> cost_weighted_series(std::span<const double> costs,
                                           std::size_t max_bundles);
// Profit-weighted bundling: tiers are spans of increasing unit cost (the
// shape tiers take in practice: local, regional, global), sized so each
// tier carries an equal share of the flows' potential profit. This is
// the "account for both cost and demand" strategy the paper finds
// near-optimal; ordering by potential profit alone (token_bucket_series
// on potential profits) performs strictly worse — see the ablation
// bench.
std::vector<Bundling> profit_weighted_series(
    std::span<const double> potential_profits, std::span<const double> costs,
    std::size_t max_bundles);
// Equal-width cost ranges over [0, max cost]; empty ranges are dropped
// (a tier nobody maps to does not exist), so element b-1 can have fewer
// than b bundles.
std::vector<Bundling> cost_division_series(std::span<const double> costs,
                                           std::size_t max_bundles);
// Flows ranked by cost, ranks divided into b equal groups.
std::vector<Bundling> index_division_series(std::span<const double> costs,
                                            std::size_t max_bundles);

}  // namespace manytiers::bundling
