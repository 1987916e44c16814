// Cross-checks for the DP kernel (bundling/dp_kernel.hpp): the
// production fill (divide-and-conquer fast path behind the probe) and
// its flat uint32-split tables must be bit-identical to the naive
// reference fill_dp_tables_naive — best AND split tables, compared as
// raw bytes, plus the extracted Bundlings — on seeded random markets and
// on adversarial tie instances. A synthetic non-monotone objective must
// trip the probe and take the (counted) fallback path.
#include "bundling/dp_kernel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "bundling/objectives.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace manytiers::bundling {
namespace {

struct RandomInstance {
  std::vector<double> v, c;
};

RandomInstance random_instance(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  RandomInstance inst;
  for (std::size_t i = 0; i < n; ++i) {
    inst.v.push_back(rng.uniform(0.5, 3.0));
    inst.c.push_back(rng.uniform(0.2, 5.0));
  }
  return inst;
}

// Bitwise table comparison: memcmp catches -0.0 vs 0.0 and NaN-pattern
// differences that operator== would wave through.
void expect_tables_identical(const DpTables& a, const DpTables& b,
                             const char* label) {
  ASSERT_EQ(a.n, b.n) << label;
  ASSERT_EQ(a.b_max, b.b_max) << label;
  ASSERT_EQ(a.best.size(), b.best.size()) << label;
  ASSERT_EQ(a.split.size(), b.split.size()) << label;
  EXPECT_EQ(0, std::memcmp(a.best.data(), b.best.data(),
                           a.best.size() * sizeof(double)))
      << label << ": best tables differ";
  EXPECT_EQ(0, std::memcmp(a.split.data(), b.split.data(),
                           a.split.size() * sizeof(std::uint32_t)))
      << label << ": split tables differ";
}

template <class Objective>
void cross_check(std::size_t n, std::size_t b_max, const Objective& obj,
                 std::span<const std::size_t> order, const char* label) {
  const auto ref = fill_dp_tables_naive(n, b_max, obj);
  const auto fast = fill_dp_tables(n, b_max, obj);
  expect_tables_identical(ref, fast, label);
  for (std::size_t b = 1; b <= b_max; ++b) {
    EXPECT_EQ(extract_dp_bundling(ref, order, b),
              extract_dp_bundling(fast, order, b))
        << label << " b=" << b;
  }
}

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

TEST(DpKernelCrossCheck, CedSeededRandomMarkets) {
  const obs::ScopedEnable metrics;
  obs::Counter& fast =
      obs::Registry::instance().counter("bundling.dp_fastpath");
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const std::size_t n : {16u, 40u, 300u}) {
      const auto inst = random_instance(seed, n);
      const auto obj = make_ced_objective(inst.v, inst.c, 1.6);
      fast.reset();
      cross_check(n, std::min<std::size_t>(8, n), obj, obj.ps.order, "ced");
      // The real CED objective is totally monotone: the probe must have
      // let the divide-and-conquer path run (one probed fill above).
      EXPECT_EQ(fast.value(), 1u) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(DpKernelCrossCheck, LogitSeededRandomMarkets) {
  const obs::ScopedEnable metrics;
  obs::Counter& fast =
      obs::Registry::instance().counter("bundling.dp_fastpath");
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    for (const std::size_t n : {25u, 120u, 300u}) {
      const auto inst = random_instance(seed + 100, n);
      const auto obj = make_logit_objective(inst.v, inst.c, 1.2);
      fast.reset();
      cross_check(n, std::min<std::size_t>(6, n), obj, obj.ps.order, "logit");
      EXPECT_EQ(fast.value(), 1u) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(DpKernelCrossCheck, EqualCostTies) {
  // Every flow at the same unit cost: segment values tie all over the
  // table; whatever path the probe picks (ulp-level violations may
  // legitimately force the fallback here), the tables must match the
  // naive reference exactly — lowest-split-wins everywhere.
  const std::size_t n = 64;
  std::vector<double> v, c;
  util::Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(rng.uniform(0.5, 3.0));
    c.push_back(2.5);
  }
  const auto ced = make_ced_objective(v, c, 1.5);
  cross_check(n, 8, ced, ced.ps.order, "ced equal costs");
  const auto logit = make_logit_objective(v, c, 1.1);
  cross_check(n, 8, logit, logit.ps.order, "logit equal costs");
}

TEST(DpKernelCrossCheck, DuplicateValuations) {
  const std::size_t n = 48;
  std::vector<double> v(n, 1.75);
  std::vector<double> c;
  util::Rng rng(123);
  for (std::size_t i = 0; i < n; ++i) c.push_back(rng.uniform(0.2, 5.0));
  const auto ced = make_ced_objective(v, c, 2.0);
  cross_check(n, 6, ced, ced.ps.order, "ced duplicate valuations");
  const auto logit = make_logit_objective(v, c, 1.3);
  cross_check(n, 6, logit, logit.ps.order, "logit duplicate valuations");
}

TEST(DpKernelCrossCheck, SingleFlowBundles) {
  // b_max == n: every row down to singleton bundles, including the
  // k == b diagonal where the candidate range is exactly one index.
  const std::size_t n = 12;
  const auto inst = random_instance(77, n);
  const auto obj = make_ced_objective(inst.v, inst.c, 1.4);
  cross_check(n, n, obj, obj.ps.order, "singleton bundles");
}

TEST(DpKernelCrossCheck, TinyInstances) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u}) {
    const auto inst = random_instance(31 + n, n);
    const auto obj = make_ced_objective(inst.v, inst.c, 1.6);
    cross_check(n, n, obj, obj.ps.order, "tiny");
  }
}

// Rewards long segments quadratically: supermodular in segment length,
// which violates the inverse quadrangle inequality at every quadruple —
// the probe must catch it and route the fill to the naive kernel.
struct NonMonotoneObjective {
  double operator()(std::size_t i, std::size_t j) const {
    const double len = static_cast<double>(j - i);
    return len * len;
  }
};

TEST(DpKernelFallback, NonMonotoneObjectiveTakesNaivePath) {
  const obs::ScopedEnable metrics;
  obs::Counter& fast =
      obs::Registry::instance().counter("bundling.dp_fastpath");
  obs::Counter& fallbacks =
      obs::Registry::instance().counter("bundling.dp_fallbacks");
  const NonMonotoneObjective obj;
  const std::size_t n = 50;
  fast.reset();
  fallbacks.reset();
  const auto t = fill_dp_tables(n, 5, obj);  // probe + fallback
  EXPECT_EQ(fast.value(), 0u);
  EXPECT_EQ(fallbacks.value(), 1u);
  const auto ref = fill_dp_tables_naive(n, 5, obj);
  // The reference never probes: neither a fast path nor a fallback.
  EXPECT_EQ(fast.value(), 0u);
  EXPECT_EQ(fallbacks.value(), 1u);
  expect_tables_identical(ref, t, "non-monotone fallback");
  // One giant bundle is optimal for a supermodular length reward; the
  // fallback must still find it.
  const auto order = identity_order(n);
  const auto b = extract_dp_bundling(t, order, 5);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].size(), n);
}

TEST(DpKernelFallback, ProbeRejectsTinyN) {
  // n < 4 has no quadruple to test; the fill must take (and count) the
  // naive path rather than run an unprobed D&C.
  const obs::ScopedEnable metrics;
  obs::Counter& fallbacks =
      obs::Registry::instance().counter("bundling.dp_fallbacks");
  const auto inst = random_instance(5, 3);
  const auto obj = make_ced_objective(inst.v, inst.c, 1.6);
  fallbacks.reset();
  fill_dp_tables(std::size_t{3}, std::size_t{3}, obj);
  EXPECT_EQ(fallbacks.value(), 1u);
}

TEST(DpKernelExtract, CountPastTheTableRowsClampsToTheTable) {
  // A table of b_max rows answers any larger count with its b_max
  // extraction; it never reads a row it does not hold.
  const std::size_t n = 10;
  const std::size_t b_max = 2;
  const auto inst = random_instance(19, n);
  const auto obj = make_ced_objective(inst.v, inst.c, 1.6);
  const auto t = fill_dp_tables(n, b_max, obj);
  EXPECT_EQ(extract_dp_bundling(t, obj.ps.order, b_max + 3),
            extract_dp_bundling(t, obj.ps.order, b_max));
}

TEST(DpKernelMemory, FlatTablesStayUnderDocumentedBudget) {
  // 100k flows x B=32 must fit the documented 12-bytes-per-cell budget:
  // (b_max+1)*(n+1)*(8+4) bytes across exactly two flat allocations —
  // under 40 MiB, where the old vector-of-vectors size_t layout needed
  // ~53 MiB plus per-row allocator overhead. The objective here is a
  // cheap strictly-monotone length penalty so the fill itself runs the
  // fast path in well under a second.
  const obs::ScopedEnable metrics;
  obs::Counter& fast =
      obs::Registry::instance().counter("bundling.dp_fastpath");
  struct ConcaveLength {
    double operator()(std::size_t i, std::size_t j) const {
      const double len = static_cast<double>(j - i);
      return -len * len;
    }
  };
  const std::size_t n = 100000;
  const std::size_t b_max = 32;
  fast.reset();
  const auto t = fill_dp_tables(n, b_max, ConcaveLength{});
  EXPECT_EQ(fast.value(), 1u) << "expected the D&C fast path at 100k flows";
  const std::size_t budget = (b_max + 1) * (n + 1) *
                             (sizeof(double) + sizeof(std::uint32_t));
  EXPECT_LE(t.bytes(), budget + (1u << 12));  // tiny allocator slack
  EXPECT_LT(t.bytes(), 40u * 1024 * 1024);
  // Sanity: a concave length penalty splits as evenly as possible.
  const auto order = identity_order(n);
  const auto b = extract_dp_bundling(t, order, b_max);
  EXPECT_EQ(b.size(), b_max);
}

TEST(DpKernelGuards, RejectsNOverUint32) {
  const NonMonotoneObjective obj;
  EXPECT_THROW(
      fill_dp_tables(std::size_t{std::numeric_limits<std::uint32_t>::max()},
                     std::size_t{2}, obj),
      std::invalid_argument);
}

}  // namespace
}  // namespace manytiers::bundling
