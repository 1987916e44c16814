// The interval-DP fill kernel behind the Optimal bundling strategy.
//
// This is the top hot path of every sweep: best[b][k] = max over i of
// best[b-1][i] + value(i, k), filled for b = 1..b_max, k = b..n. The
// kernel is layered (ROADMAP "beat O(n^2 B)"):
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
//  3. Deterministic parallelism — rows wider than a threshold fill in
//     parallel over util::parallel_for. The work decomposition is a
//     pure function of the row width (never of the thread count), each
//     chunk keeps the serial scan order, and ties break lowest-split-
//     wins exactly like the serial fill — so the tables are
//     bit-identical at any thread count, extending the sweep engine's
//     determinism guarantee through this layer.
//
// Equality contract: for any objective, kernel, thread count, and
// options, fill_dp_tables produces tables bit-identical to the naive
// reference fill whenever the leftmost argmax of each row (as computed
// in floating point) is nondecreasing in k — which the probe checks on
// samples and the cross-check tests verify end-to-end on seeded
// markets. When the probe fails, the naive fill runs and identity is
// trivial.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bundling/bundle.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

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

enum class DpKernel {
  kAuto,           // probe total monotonicity; D&C on pass, naive on fail
  kNaive,          // force the O(n^2) reference scan
  kDivideConquer,  // force D&C (no probe; caller asserts monotonicity)
};

struct DpKernelOptions {
  DpKernel kernel = DpKernel::kAuto;
  // Rows at least this wide fill via parallel_for (unless the fill is
  // already running inside a parallel_for worker — nested fan-out would
  // oversubscribe; the sweep engine owns the outer parallelism).
  std::size_t parallel_row_threshold = 16384;
  // Target columns per parallel chunk. Chunk boundaries are a function
  // of (row width, grain, max_chunks) only — never the thread count —
  // which is what keeps parallel fills bit-identical to serial ones.
  std::size_t parallel_grain = 8192;
  std::size_t max_chunks = 64;
  // Worker threads for parallel rows; 0 defers to MANYTIERS_THREADS /
  // hardware_concurrency (util::parallel_for semantics).
  std::size_t threads = 0;
};

// Options with the kernel choice taken from MANYTIERS_DP_KERNEL
// ("auto" | "naive" | "dc"; unset or unrecognized means auto). The env
// override exists so any binary — benches, the batch driver, a golden
// byte-compare — can force a kernel without a flag.
DpKernelOptions dp_kernel_options_from_env();

// Reconstruct the optimal bundling for a requested bundle count from
// filled tables. Row b of the DP does not depend on b_max, so
// extracting from a taller table is identical to filling a table of
// exactly this height.
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

// Naive reference scan for row b over k in [klo, khi]: the exact loop
// (including the lowest-split-wins strict-> tie-break and the -inf skip
// that only row 1 can hit) of the pre-kernel implementation.
template <class Objective>
void fill_row_naive(std::size_t b, const double* prev, double* best,
                    std::uint32_t* split, std::size_t klo, std::size_t khi,
                    const Objective& value) {
  for (std::size_t k = klo; k <= khi; ++k) {
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

// Deterministic chunk count for a row of `width` columns: a function of
// the options and the width only, never of the thread count.
inline std::size_t row_chunks(std::size_t width, const DpKernelOptions& opt) {
  const std::size_t grain = std::max<std::size_t>(opt.parallel_grain, 1);
  return std::min(std::max<std::size_t>(opt.max_chunks, 1), width / grain);
}

template <class Objective>
void fill_row(std::size_t b, std::size_t n, const double* prev, double* best,
              std::uint32_t* split, const Objective& value, bool use_dc,
              const DpKernelOptions& opt) {
  if (b > n) return;  // row has no feasible k; stays -inf like the reference
  const std::size_t klo = b;
  const std::size_t khi = n;
  const std::size_t width = khi - klo + 1;
  // Never fan out from inside a parallel_for worker: the sweep engine
  // already owns the cores, and the serial kernel is bit-identical.
  const bool parallel = width >= opt.parallel_row_threshold &&
                        !util::in_parallel_worker() &&
                        row_chunks(width, opt) >= 2;

  if (b == 1) {
    // Only i = 0 is feasible (prev[i>0] is -inf); computing prev[0] +
    // value(0,k) directly is bitwise what the naive -inf-skipping scan
    // stores, in O(n) instead of O(n^2).
    const auto run = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k <= hi; ++k) {
        best[k] = prev[0] + value(0, k);
        split[k] = 0;
      }
    };
    if (!use_dc) {
      // The naive kernel is the reference: keep its exact loop shape.
      if (!parallel) {
        fill_row_naive(b, prev, best, split, klo, khi, value);
      } else {
        const std::size_t chunks = row_chunks(width, opt);
        util::parallel_for(
            chunks,
            [&](std::size_t t) {
              const std::size_t lo = klo + (width * t) / chunks;
              const std::size_t hi = klo + (width * (t + 1)) / chunks - 1;
              if (lo <= hi) fill_row_naive(b, prev, best, split, lo, hi, value);
            },
            opt.threads);
      }
      return;
    }
    if (!parallel) {
      run(klo, khi);
    } else {
      const std::size_t chunks = row_chunks(width, opt);
      util::parallel_for(
          chunks,
          [&](std::size_t t) {
            const std::size_t lo = klo + (width * t) / chunks;
            const std::size_t hi = klo + (width * (t + 1)) / chunks - 1;
            if (lo <= hi) run(lo, hi);
          },
          opt.threads);
    }
    return;
  }

  if (!use_dc) {
    if (!parallel) {
      fill_row_naive(b, prev, best, split, klo, khi, value);
      return;
    }
    const std::size_t chunks = row_chunks(width, opt);
    util::parallel_for(
        chunks,
        [&](std::size_t t) {
          const std::size_t lo = klo + (width * t) / chunks;
          const std::size_t hi = klo + (width * (t + 1)) / chunks - 1;
          if (lo <= hi) fill_row_naive(b, prev, best, split, lo, hi, value);
        },
        opt.threads);
    return;
  }

  RowDC<Objective> dc{prev, best, split, value};
  if (!parallel) {
    dc.solve(klo, khi, b - 1, n - 1);
    return;
  }
  // Parallel D&C: solve the chunk-boundary columns serially first (each
  // scan lower-bounded by the previous boundary's argmax, so the pass
  // is O(n) total under monotonicity), then every chunk is an
  // independent D&C with i-bounds pinned by its boundary argmaxes.
  const std::size_t chunks = row_chunks(width, opt);
  std::vector<std::size_t> kb(chunks + 1);
  std::vector<std::size_t> jb(chunks + 1, 0);
  for (std::size_t t = 0; t <= chunks; ++t) {
    kb[t] = klo + (width * t) / chunks;
  }
  std::size_t prevj = b - 1;
  for (std::size_t t = 1; t < chunks; ++t) {
    const std::size_t k = kb[t];
    const std::size_t hi = std::min(n - 1, k - 1);
    double bk = kNegInf;
    std::size_t sk = prevj;
    for (std::size_t i = prevj; i <= hi; ++i) {
      const double v = prev[i] + value(i, k);
      if (v > bk) {
        bk = v;
        sk = i;
      }
    }
    best[k] = bk;
    split[k] = static_cast<std::uint32_t>(sk);
    jb[t] = sk;
    prevj = sk;
  }
  util::parallel_for(
      chunks,
      [&](std::size_t t) {
        const std::size_t lo = kb[t] + (t > 0 ? 1 : 0);
        const std::size_t hi = kb[t + 1] - 1;
        if (lo > hi) return;
        const std::size_t ilo = (t == 0) ? b - 1 : jb[t];
        const std::size_t ihi = (t + 1 < chunks) ? jb[t + 1] : n - 1;
        RowDC<Objective>{prev, best, split, value}.solve(lo, hi, ilo, ihi);
      },
      opt.threads);
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

}  // namespace dp_detail

// Fill the DP tables for `n` sorted flows and rows 1..b_max. The
// `value(i, k)` objective scores the sorted segment [i, k); callers
// clamp b_max <= n. Throws std::invalid_argument when n >= 2^32 (split
// indices are uint32_t).
template <class Objective>
DpTables fill_dp_tables(std::size_t n, std::size_t b_max,
                        const Objective& value,
                        const DpKernelOptions& opt = dp_kernel_options_from_env()) {
  if (n >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "interval_dp: n must be < 2^32 - 1 (split indices are stored as "
        "uint32_t)");
  }
  const auto& counters = dp_detail::dp_counters();
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
  t.best.assign((b_max + 1) * stride, dp_detail::kNegInf);
  t.split.assign((b_max + 1) * stride, 0);
  t.best[0] = 0.0;

  bool use_dc = false;
  switch (opt.kernel) {
    case DpKernel::kNaive:
      break;
    case DpKernel::kDivideConquer:
      use_dc = true;
      break;
    case DpKernel::kAuto:
      use_dc = dp_detail::probe_total_monotonicity(n, value);
      if (use_dc) {
        counters.fastpath->add();
      } else {
        counters.fallbacks->add();
      }
      break;
  }

  for (std::size_t b = 1; b <= b_max; ++b) {
    const double* prev = t.best.data() + (b - 1) * stride;
    double* best = t.best.data() + b * stride;
    std::uint32_t* split = t.split.data() + b * stride;
    dp_detail::fill_row(b, n, prev, best, split, value, use_dc, opt);
  }
  return t;
}

}  // namespace manytiers::bundling
