// The interval-DP fill kernel behind the Optimal bundling strategy.
//
// This is the top hot path of every sweep: best[b][k] = max over i of
// best[b-1][i] + value(i, k), filled for b = 1..b_max, k = b..n. The
// kernel has two layers (ROADMAP "beat O(n^2 B)"):
//
//  1. Layout + devirtualization — fill_dp_tables<Objective> is templated
//     on the segment objective, so the CED/logit entry points compile to
//     a direct (inlinable) call instead of a std::function dispatch, and
//     the tables are flat row-major single allocations (8-byte best +
//     4-byte split per cell) instead of vectors of vectors.
//  2. Divide-and-conquer row fill — when the objective is totally
//     monotone (leftmost argmax nondecreasing in k; see the probe
//     below), each row fills in O(n log n) instead of O(n^2). Both the
//     paper's segment objectives qualify: they are positively
//     homogeneous convex functions of cost-sorted prefix-sum
//     differences, which makes -value Monge (DESIGN.md §6). A runtime
//     probe samples the quadrangle inequality per fill and falls back
//     to the naive scan when it fails, so arbitrary objectives stay
//     exact.
//
// fill_dp_tables is the one production fill. fill_dp_tables_naive is the
// O(n^2 B) reference; the cross-check tests and bench_dp_scaling call it
// by name.
//
// Equality contract: for any objective, fill_dp_tables produces tables
// bit-identical to fill_dp_tables_naive whenever the leftmost argmax of
// each row (as computed in floating point) is nondecreasing in k — which
// the probe checks on samples and the cross-check tests verify
// end-to-end on seeded markets. When the probe fails, the naive fill
// runs and identity is trivial. Every fill is serial: the sweep engine
// owns the parallelism, one task per fill.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "bundling/bundle.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace manytiers::bundling {

// Flat row-major DP tables: row b at offset b*(n+1), columns 0..n.
// best[b][k] is the maximum value of splitting the first k sorted flows
// into exactly b intervals; split[b][k] is the start of the last
// interval. Split indices are uint32_t (n < 2^32 is enforced by the
// fill), which shrinks the tables to 12 bytes per cell in exactly two
// allocations — (b_max+1)*(n+1)*12 bytes total, the documented budget
// asserted by tests.
struct DpTables {
  std::size_t n = 0;
  std::size_t b_max = 0;
  std::vector<double> best;
  std::vector<std::uint32_t> split;

  std::size_t stride() const { return n + 1; }
  double best_at(std::size_t b, std::size_t k) const {
    return best[b * stride() + k];
  }
  std::uint32_t split_at(std::size_t b, std::size_t k) const {
    return split[b * stride() + k];
  }
  // Heap footprint of the two tables (the struct itself is trivial).
  std::size_t bytes() const {
    return best.capacity() * sizeof(double) +
           split.capacity() * sizeof(std::uint32_t);
  }
};

// Reconstruct the optimal bundling for a requested bundle count from
// filled tables. Row b of the DP does not depend on b_max, so
// extracting from a taller table is identical to filling a table of
// exactly this height; a count past the table's rows (or past n) is
// clamped to what the table holds.
Bundling extract_dp_bundling(const DpTables& t,
                             std::span<const std::size_t> order,
                             std::size_t n_bundles);

namespace dp_detail {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Sampled check of the inverse quadrangle inequality
//   value(i1,k1) + value(i2,k2) >= value(i1,k2) + value(i2,k1)
// for i1 < i2 < k1 < k2, which (per the classic SMAWK/D&C argument)
// makes the leftmost argmax of every DP row nondecreasing in k. The
// probe is deterministic: an 8-position ladder of adjacent quadruples
// plus an 8x8 grid of spread quadruples up to full extent. A sampled
// pass is not a proof — the cross-check tests carry the end-to-end
// guarantee — but any violation found forces the exact naive fill.
template <class Objective>
bool probe_total_monotonicity(std::size_t n, const Objective& value) {
  if (n < 4) return false;  // no quadruple to test; naive is cheap anyway
  const auto holds = [&](std::size_t i1, std::size_t i2, std::size_t k1,
                         std::size_t k2) {
    return !(value(i1, k1) + value(i2, k2) < value(i1, k2) + value(i2, k1));
  };
  const std::size_t steps = std::min<std::size_t>(n - 3, 8);
  for (std::size_t a = 0; a < steps; ++a) {
    const std::size_t i1 = (a * (n - 3)) / steps;  // <= n - 4
    if (!holds(i1, i1 + 1, i1 + 2, i1 + 3)) return false;
    for (std::size_t c = 1; c <= steps; ++c) {
      const std::size_t k2 = i1 + 3 + ((n - 3 - i1) * c) / steps;  // <= n
      const std::size_t k1 = i1 + 2 + (k2 - i1 - 2) / 2;           // < k2
      const std::size_t i2 = i1 + 1 + (k1 - i1 - 1) / 2;           // < k1
      if (!holds(i1, i2, k1, k2)) return false;
      if (!holds(i1, i1 + 1, k2 - 1, k2)) return false;
    }
  }
  return true;
}

// Naive reference scan for row b over k in [b, n]: the exact loop
// (including the lowest-split-wins strict-> tie-break and the -inf skip
// that only row 1 can hit) of the pre-kernel implementation.
template <class Objective>
void fill_row_naive(std::size_t b, std::size_t n, const double* prev,
                    double* best, std::uint32_t* split,
                    const Objective& value) {
  for (std::size_t k = b; k <= n; ++k) {
    double bk = kNegInf;
    std::uint32_t sk = 0;
    for (std::size_t i = b - 1; i < k; ++i) {
      if (prev[i] == kNegInf) continue;
      const double v = prev[i] + value(i, k);
      if (v > bk) {
        bk = v;
        sk = static_cast<std::uint32_t>(i);
      }
    }
    best[k] = bk;
    split[k] = sk;
  }
}

// Divide-and-conquer row fill: compute the leftmost argmax at the
// midpoint k by a plain ascending scan (same candidate expression and
// strict-> tie-break as the naive fill), then recurse left with the
// argmax as the new upper bound and iterate right with it as the new
// lower bound. Exact whenever the leftmost argmax is nondecreasing in
// k. O((khi-klo) + (ihi-ilo)) work per level, log2(width) levels.
template <class Objective>
struct RowDC {
  const double* prev;
  double* best;
  std::uint32_t* split;
  const Objective& value;

  void solve(std::size_t klo, std::size_t khi, std::size_t ilo,
             std::size_t ihi) {
    while (klo <= khi) {
      const std::size_t k = klo + (khi - klo) / 2;
      const std::size_t hi = std::min(ihi, k - 1);
      double bk = kNegInf;
      std::size_t sk = ilo;
      for (std::size_t i = ilo; i <= hi; ++i) {
        const double v = prev[i] + value(i, k);
        if (v > bk) {
          bk = v;
          sk = i;
        }
      }
      best[k] = bk;
      split[k] = static_cast<std::uint32_t>(sk);
      if (k > klo) solve(klo, k - 1, ilo, sk);  // left half: argmax <= sk
      klo = k + 1;                              // right half: argmax >= sk
      ilo = sk;
    }
  }
};

// The fast-path fill of row b over k in [b, n]; exact under total
// monotonicity.
template <class Objective>
void fill_row_dc(std::size_t b, std::size_t n, const double* prev,
                 double* best, std::uint32_t* split, const Objective& value) {
  if (b == 1) {
    // Only i = 0 is feasible (prev[i>0] is -inf); computing prev[0] +
    // value(0,k) directly is bitwise what the naive -inf-skipping scan
    // stores, in O(n) instead of O(n^2).
    for (std::size_t k = 1; k <= n; ++k) {
      best[k] = prev[0] + value(0, k);
      split[k] = 0;
    }
    return;
  }
  RowDC<Objective>{prev, best, split, value}.solve(b, n, b - 1, n - 1);
}

struct DpCounters {
  obs::Counter* fills;
  obs::Counter* cells;
  obs::Counter* fastpath;
  obs::Counter* fallbacks;
};
// Cached handles for bundling.dp_fills / dp_cells / dp_fastpath /
// dp_fallbacks (one registry lookup per process).
const DpCounters& dp_counters();

// The fill both entry points share. With `probe` the total-monotonicity
// probe picks the row fill (and bumps dp_fastpath or dp_fallbacks);
// without it every row takes the naive scan.
template <class Objective>
DpTables fill_tables(std::size_t n, std::size_t b_max, const Objective& value,
                     bool probe) {
  if (n >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "interval_dp: n must be < 2^32 - 1 (split indices are stored as "
        "uint32_t)");
  }
  const auto& counters = dp_counters();
  counters.fills->add();
  // Cells actually computed: row b covers k in [b, n].
  if (b_max > 0 && b_max <= n) {
    counters.cells->add(b_max * (n + 1) - b_max * (b_max + 1) / 2);
  }
  // The span args are built only when the tracer is live; an untraced
  // fill pays one relaxed load here and nothing else.
  const obs::Span span("interval_dp.fill",
                       obs::trace_args("n", n, "b_max", b_max));

  DpTables t;
  t.n = n;
  t.b_max = b_max;
  const std::size_t stride = n + 1;
  t.best.assign((b_max + 1) * stride, kNegInf);
  t.split.assign((b_max + 1) * stride, 0);
  t.best[0] = 0.0;

  const bool use_dc = probe && probe_total_monotonicity(n, value);
  if (probe) (use_dc ? counters.fastpath : counters.fallbacks)->add();

  // A row past n has no feasible k and stays -inf like the reference.
  for (std::size_t b = 1; b <= std::min(b_max, n); ++b) {
    const double* prev = t.best.data() + (b - 1) * stride;
    double* best = t.best.data() + b * stride;
    std::uint32_t* split = t.split.data() + b * stride;
    if (use_dc) {
      fill_row_dc(b, n, prev, best, split, value);
    } else {
      fill_row_naive(b, n, prev, best, split, value);
    }
  }
  return t;
}

}  // namespace dp_detail

// Fill the DP tables for `n` sorted flows and rows 1..b_max. The
// `value(i, k)` objective scores the sorted segment [i, k); callers
// clamp b_max <= n. The probe picks the divide-and-conquer or the naive
// row fill. Throws std::invalid_argument when n >= 2^32 (split indices
// are uint32_t).
template <class Objective>
DpTables fill_dp_tables(std::size_t n, std::size_t b_max,
                        const Objective& value) {
  return dp_detail::fill_tables(n, b_max, value, /*probe=*/true);
}

// The O(n^2 B) reference: every row by the naive scan, no probe. Counts
// the fill and its cells, not a fast path or a fallback.
template <class Objective>
DpTables fill_dp_tables_naive(std::size_t n, std::size_t b_max,
                              const Objective& value) {
  return dp_detail::fill_tables(n, b_max, value, /*probe=*/false);
}

// The series plumbing behind ced_optimal_series / logit_optimal_series:
// maximize the sum of `value(i, j)` (value of the sorted segment [i, j))
// over partitions of the `order`-sorted flows into at most b intervals,
// for every b = 1..max_bundles, from one table fill. Element b-1 holds
// bundles of original indices and is identical to a fill of exactly b
// rows (row b only reads row b-1).
template <class Objective>
std::vector<Bundling> interval_dp_series(std::span<const std::size_t> order,
                                         std::size_t max_bundles,
                                         const Objective& value) {
  if (order.empty()) throw std::invalid_argument("interval_dp: no flows");
  if (max_bundles == 0) {
    throw std::invalid_argument("interval_dp: need at least one bundle");
  }
  const std::size_t b_max = std::min(max_bundles, order.size());
  const auto tables = fill_dp_tables(order.size(), b_max, value);
  std::vector<Bundling> out;
  out.reserve(max_bundles);
  for (std::size_t b = 1; b <= max_bundles; ++b) {
    out.push_back(extract_dp_bundling(tables, order, b));
  }
  return out;
}

}  // namespace manytiers::bundling
