// Optimal bundling (paper §4.2.1, the "Optimal" strategy).
//
// The paper exhaustively searches all bundle combinations; that is
// exponential, so we also provide an exact polynomial algorithm. For both
// demand models, a bundle's contribution to total optimal profit depends
// only on (W, C) = (sum of flow weights, sum of weight * unit cost):
//
//   CED:   weight w_i = v_i^alpha; bundle profit at its optimal price is
//          W * (C/W)^(1-alpha) * alpha^(-alpha) * (alpha-1)^(alpha-1),
//          and total profit is the sum over bundles.
//   Logit: weight w_i = e^{alpha v_i}; total profit is monotone in the
//          bundle-set quality G = sum_b W_b * e^{-alpha C_b / W_b}.
//
// Both per-bundle objectives are positively homogeneous and convex in
// (W, C), so some optimal partition is contiguous in unit cost c_i: sort
// flows by cost and split into intervals. That makes an O(B n^2) interval
// DP exact; tests verify it against exhaustive enumeration on small
// instances for both models.
//
// The DP is exposed only as series over bundle counts (one table fill
// answers every b <= B): ced_optimal_series / logit_optimal_series for
// the paper's objectives. A custom objective goes through the
// interval_dp_series template in bundling/dp_kernel.hpp, which both
// series share. exhaustive_optimal stays as the oracle.
#pragma once

#include <functional>
#include <span>

#include "bundling/bundle.hpp"

namespace manytiers::bundling {

// Exhaustive search over every partition of {0..n-1} into at most
// `max_bundles` non-empty bundles, maximizing `profit`. Exponential;
// refuses n_flows > 14.
Bundling exhaustive_optimal(std::size_t n_flows, std::size_t max_bundles,
                            const std::function<double(const Bundling&)>& profit);

// Exact optimal bundling for the CED / logit model at every bundle
// count: element b-1 is the optimal partition into at most b bundles,
// for b = 1..max_bundles, from ONE sort, one set of prefix sums, and one
// DP table fill — O(n^2 B) total instead of O(n^2 B^2) for a per-b
// loop. A single count b is element b-1 of the series up to b.
std::vector<Bundling> ced_optimal_series(std::span<const double> valuations,
                                         std::span<const double> costs,
                                         double alpha,
                                         std::size_t max_bundles);
std::vector<Bundling> logit_optimal_series(std::span<const double> valuations,
                                           std::span<const double> costs,
                                           double alpha,
                                           std::size_t max_bundles);

// Implementation note: both series run through the kernel in
// bundling/dp_kernel.hpp — flat row-major tables with uint32 split
// indices, and a divide-and-conquer O(n log n)-per-row fill when the
// objective passes the total-monotonicity probe (both CED and logit do
// on tie-free markets; DESIGN.md §6), the naive fill otherwise. The
// kernel header states when the output is bit-identical to the naive
// reference, fill_dp_tables_naive.
//
// Instrumentation (obs registry, per-thread sharded, safe under
// parallel sweeps): "bundling.dp_fills" counts table fills (tests
// enable the registry and assert a capture series costs exactly one
// fill), "bundling.dp_cells" the DP cells computed, and
// "bundling.dp_fastpath" / "bundling.dp_fallbacks" partition the
// probed fills by whether the monotonicity probe let the
// divide-and-conquer path run.

}  // namespace manytiers::bundling
