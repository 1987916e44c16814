#include "bundling/optimal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "bundling/dp_kernel.hpp"
#include "demand/ced.hpp"
#include "demand/logit.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace manytiers::bundling {
namespace {

// Total CED profit of a bundling with each bundle at its optimal price.
double ced_bundling_profit(const demand::CedModel& model,
                           const std::vector<double>& v,
                           const std::vector<double>& c, const Bundling& b) {
  double total = 0.0;
  for (const auto& bundle : b) {
    std::vector<double> bv, bc;
    for (const std::size_t i : bundle) {
      bv.push_back(v[i]);
      bc.push_back(c[i]);
    }
    const double price = model.bundle_price(bv, bc);
    for (std::size_t i = 0; i < bv.size(); ++i) {
      total += model.flow_profit(bv[i], bc[i], price);
    }
  }
  return total;
}

// Total logit profit of a bundling at the equal-markup optimum.
double logit_bundling_profit(const demand::LogitModel& model,
                             const std::vector<double>& v,
                             const std::vector<double>& c, const Bundling& b) {
  std::vector<double> bundle_v, bundle_c;
  for (const auto& bundle : b) {
    std::vector<double> bv, bc;
    for (const std::size_t i : bundle) {
      bv.push_back(v[i]);
      bc.push_back(c[i]);
    }
    bundle_v.push_back(model.bundle_valuation(bv));
    bundle_c.push_back(model.bundle_cost(bv, bc));
  }
  return model.optimal_prices(bundle_v, bundle_c).profit;
}

TEST(ExhaustiveOptimal, FindsTheObviousSplit) {
  // Two cheap flows and two expensive flows, two bundles: the optimal
  // partition separates them by cost.
  const demand::CedModel model(2.0);
  const std::vector<double> v{1.0, 1.0, 1.0, 1.0};
  const std::vector<double> c{1.0, 1.0, 4.0, 4.0};
  const auto best = exhaustive_optimal(4, 2, [&](const Bundling& b) {
    return ced_bundling_profit(model, v, c, b);
  });
  ASSERT_EQ(best.size(), 2u);
  auto sorted = best;
  for (auto& bundle : sorted) std::sort(bundle.begin(), bundle.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], (Bundle{0, 1}));
  EXPECT_EQ(sorted[1], (Bundle{2, 3}));
}

TEST(ExhaustiveOptimal, OneBundleMeansNoChoice) {
  const auto best =
      exhaustive_optimal(3, 1, [](const Bundling&) { return 1.0; });
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].size(), 3u);
}

TEST(ExhaustiveOptimal, Validates) {
  const auto unit = [](const Bundling&) { return 0.0; };
  EXPECT_THROW(exhaustive_optimal(0, 2, unit), std::invalid_argument);
  EXPECT_THROW(exhaustive_optimal(20, 2, unit), std::invalid_argument);
  EXPECT_THROW(exhaustive_optimal(3, 0, unit), std::invalid_argument);
}

TEST(IntervalDp, SplitsAtTheObviousBoundary) {
  const std::vector<std::size_t> order{0, 1, 2, 3};
  // Segment value: 1 point per singleton segment, 0 otherwise, capped at
  // two bundles -> DP must pick some 2-way split; with value favoring
  // {0} | {1,2,3} style splits we can check reconstruction.
  const auto value = [](std::size_t i, std::size_t j) {
    return (j - i == 2) ? 10.0 : 0.0;  // reward segments of exactly 2
  };
  const auto b = interval_dp_series(order, 2, value).back();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], (Bundle{0, 1}));
  EXPECT_EQ(b[1], (Bundle{2, 3}));
}

TEST(IntervalDp, MapsBackToOriginalIndices) {
  const std::vector<std::size_t> order{3, 1, 0, 2};  // cost-sorted order
  const auto value = [](std::size_t, std::size_t) { return 1.0; };
  const auto b = interval_dp_series(order, 4, value).back();
  EXPECT_NO_THROW(validate(b, 4));
}

TEST(IntervalDp, Validates) {
  const auto unit = [](std::size_t, std::size_t) { return 0.0; };
  EXPECT_THROW(interval_dp_series({}, 2, unit), std::invalid_argument);
  const std::vector<std::size_t> order{0};
  EXPECT_THROW(interval_dp_series(order, 0, unit), std::invalid_argument);
}

// --- The load-bearing property: the interval DP is exact. ---

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

// The paper's markets are made of cost ties: regional markets have 1-3
// distinct unit costs, dest-type markets 2. Tie shapes at n = 9, the
// seed drawing valuations and cost levels:
//   0  all costs equal;
//   1  two cost values, drawn per flow;
//   2  three cost values alternating, so every tie group is spread over
//      the whole input order;
//   3  two cost halves, with duplicate valuations inside each tie.
RandomInstance tie_instance(int shape, std::uint64_t seed) {
  const std::size_t n = 9;
  util::Rng rng(seed);
  const double levels[3] = {rng.uniform(0.2, 1.5), rng.uniform(1.5, 3.0),
                            rng.uniform(3.0, 5.0)};
  const double dup[2][2] = {{rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)},
                            {rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)}};
  RandomInstance inst;
  for (std::size_t i = 0; i < n; ++i) {
    const bool upper = i >= n / 2;
    switch (shape) {
      case 0:
        inst.c.push_back(levels[1]);
        break;
      case 1:
        inst.c.push_back(levels[rng.bernoulli(0.5) ? 0 : 2]);
        break;
      case 2:
        inst.c.push_back(levels[i % 3]);
        break;
      default:
        inst.c.push_back(levels[upper ? 2 : 0]);
        inst.v.push_back(dup[upper][rng.bernoulli(0.5)]);
        continue;
    }
    inst.v.push_back(rng.uniform(0.5, 3.0));
  }
  return inst;
}

// The DP's optimum at 2..max_bundles bundles must reach the exhaustive
// one's profit.
void expect_ced_matches_exhaustive(const RandomInstance& inst,
                                   std::size_t max_bundles,
                                   const std::string& label) {
  const demand::CedModel model(1.6);
  for (std::size_t n_bundles = 2; n_bundles <= max_bundles; ++n_bundles) {
    const auto dp = ced_optimal_series(inst.v, inst.c, 1.6, n_bundles).back();
    const auto ex =
        exhaustive_optimal(inst.v.size(), n_bundles, [&](const Bundling& b) {
          return ced_bundling_profit(model, inst.v, inst.c, b);
        });
    const double dp_profit = ced_bundling_profit(model, inst.v, inst.c, dp);
    const double ex_profit = ced_bundling_profit(model, inst.v, inst.c, ex);
    EXPECT_NEAR(dp_profit, ex_profit, 1e-9 * std::abs(ex_profit))
        << label << " bundles=" << n_bundles;
  }
}

void expect_logit_matches_exhaustive(const RandomInstance& inst,
                                     std::size_t max_bundles,
                                     const std::string& label) {
  const demand::LogitModel model(1.2, 100.0);
  for (std::size_t n_bundles = 2; n_bundles <= max_bundles; ++n_bundles) {
    const auto dp =
        logit_optimal_series(inst.v, inst.c, 1.2, n_bundles).back();
    const auto ex =
        exhaustive_optimal(inst.v.size(), n_bundles, [&](const Bundling& b) {
          return logit_bundling_profit(model, inst.v, inst.c, b);
        });
    const double dp_profit =
        logit_bundling_profit(model, inst.v, inst.c, dp);
    const double ex_profit =
        logit_bundling_profit(model, inst.v, inst.c, ex);
    EXPECT_NEAR(dp_profit, ex_profit, 1e-7 * std::abs(ex_profit))
        << label << " bundles=" << n_bundles;
  }
}

class DpMatchesExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpMatchesExhaustive, CedInstances) {
  const std::string seed = "seed=" + std::to_string(GetParam());
  expect_ced_matches_exhaustive(random_instance(GetParam(), 8), 3, seed);
  for (int shape = 0; shape < 4; ++shape) {
    expect_ced_matches_exhaustive(tie_instance(shape, GetParam() + 2000), 4,
                                  seed + " tie shape " +
                                      std::to_string(shape));
  }
}

TEST_P(DpMatchesExhaustive, LogitInstances) {
  const std::string seed = "seed=" + std::to_string(GetParam());
  expect_logit_matches_exhaustive(random_instance(GetParam() + 1000, 7), 3,
                                  seed);
  for (int shape = 0; shape < 4; ++shape) {
    expect_logit_matches_exhaustive(tie_instance(shape, GetParam() + 3000), 4,
                                    seed + " tie shape " +
                                        std::to_string(shape));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpMatchesExhaustive,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(IntervalDpAll, ElementWiseIdenticalToPerCountDp) {
  // The single-pass series must be indistinguishable from re-filling the
  // DP up to each bundle count alone — exact Bundling equality, not just
  // profit.
  const auto inst = random_instance(7, 24);
  std::vector<std::size_t> order(inst.v.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return inst.c[a] < inst.c[b];
  });
  const auto value = [&](std::size_t i, std::size_t j) {
    // An arbitrary non-monotone objective exercises the max-over-b
    // extraction, not just the superadditive fast path.
    double sum = 0.0;
    for (std::size_t r = i; r < j; ++r) sum += inst.v[order[r]];
    return sum - 0.7 * double(j - i) * double(j - i);
  };
  const std::size_t max_bundles = 30;  // deliberately > n to hit clamping
  const auto all = interval_dp_series(order, max_bundles, value);
  ASSERT_EQ(all.size(), max_bundles);
  for (std::size_t b = 1; b <= max_bundles; ++b) {
    EXPECT_EQ(all[b - 1], interval_dp_series(order, b, value).back())
        << "b=" << b;
  }
}

TEST(IntervalDpAll, Validates) {
  const auto unit = [](std::size_t, std::size_t) { return 0.0; };
  EXPECT_THROW(interval_dp_series({}, 2, unit), std::invalid_argument);
  const std::vector<std::size_t> order{0};
  EXPECT_THROW(interval_dp_series(order, 0, unit), std::invalid_argument);
}

TEST(OptimalSeries, MatchPerCountCallsExactly) {
  const auto inst = random_instance(11, 25);
  const std::size_t max_bundles = 7;
  const auto ced_series = ced_optimal_series(inst.v, inst.c, 1.4, max_bundles);
  const auto logit_series =
      logit_optimal_series(inst.v, inst.c, 1.2, max_bundles);
  ASSERT_EQ(ced_series.size(), max_bundles);
  ASSERT_EQ(logit_series.size(), max_bundles);
  for (std::size_t b = 1; b <= max_bundles; ++b) {
    EXPECT_EQ(ced_series[b - 1],
              ced_optimal_series(inst.v, inst.c, 1.4, b).back());
    EXPECT_EQ(logit_series[b - 1],
              logit_optimal_series(inst.v, inst.c, 1.2, b).back());
  }
}

TEST(OptimalSeries, CostExactlyOneDpFill) {
  // The fill count lives on the obs registry now; the O(n^2 B)-not-
  // O(n^2 B^2) guarantee is "a whole series costs one fill".
  const obs::ScopedEnable metrics;
  obs::Counter& fills =
      obs::Registry::instance().counter("bundling.dp_fills");
  const auto inst = random_instance(12, 20);
  fills.reset();
  ced_optimal_series(inst.v, inst.c, 1.4, 6);
  EXPECT_EQ(fills.value(), 1u);
  fills.reset();
  logit_optimal_series(inst.v, inst.c, 1.2, 6);
  EXPECT_EQ(fills.value(), 1u);
}

TEST(OptimalSeries, DpKernelCountersTrackCellsAndFastPath) {
  // dp_cells counts computed DP cells exactly: row b covers k in [b, n],
  // so a 20-flow, 6-row fill is sum_{b=1..6} (20 - b + 1) = 105 cells.
  // Both paper objectives are totally monotone, so the auto kernel's
  // probe must let the divide-and-conquer path run (dp_fastpath) and
  // never fall back (dp_fallbacks).
  const obs::ScopedEnable metrics;
  auto& registry = obs::Registry::instance();
  obs::Counter& cells = registry.counter("bundling.dp_cells");
  obs::Counter& fastpath = registry.counter("bundling.dp_fastpath");
  obs::Counter& fallbacks = registry.counter("bundling.dp_fallbacks");
  const auto inst = random_instance(12, 20);
  for (int pass = 0; pass < 2; ++pass) {
    cells.reset();
    fastpath.reset();
    fallbacks.reset();
    if (pass == 0) {
      ced_optimal_series(inst.v, inst.c, 1.4, 6);
    } else {
      logit_optimal_series(inst.v, inst.c, 1.2, 6);
    }
    EXPECT_EQ(cells.value(), 105u) << "pass=" << pass;
    EXPECT_EQ(fastpath.value(), 1u) << "pass=" << pass;
    EXPECT_EQ(fallbacks.value(), 0u) << "pass=" << pass;
  }
}

TEST(CedOptimal, ProfitIsMonotoneInBundleCount) {
  const auto inst = random_instance(42, 40);
  const demand::CedModel model(1.3);
  double prev = -1e300;
  for (std::size_t n = 1; n <= 8; ++n) {
    const auto b = ced_optimal_series(inst.v, inst.c, 1.3, n).back();
    const double profit = ced_bundling_profit(model, inst.v, inst.c, b);
    EXPECT_GE(profit, prev - 1e-9);
    prev = profit;
  }
}

TEST(LogitOptimal, ProfitIsMonotoneInBundleCount) {
  const auto inst = random_instance(43, 40);
  const demand::LogitModel model(1.1, 500.0);
  double prev = -1e300;
  for (std::size_t n = 1; n <= 8; ++n) {
    const auto b = logit_optimal_series(inst.v, inst.c, 1.1, n).back();
    const double profit = logit_bundling_profit(model, inst.v, inst.c, b);
    EXPECT_GE(profit, prev - 1e-9);
    prev = profit;
  }
}

TEST(CedOptimal, BundlesAreContiguousInCost) {
  const auto inst = random_instance(44, 30);
  const auto b = ced_optimal_series(inst.v, inst.c, 2.0, 4).back();
  // For each pair of bundles, cost ranges must not interleave.
  for (std::size_t x = 0; x < b.size(); ++x) {
    for (std::size_t y = x + 1; y < b.size(); ++y) {
      double xmin = 1e300, xmax = -1e300, ymin = 1e300, ymax = -1e300;
      for (const auto i : b[x]) {
        xmin = std::min(xmin, inst.c[i]);
        xmax = std::max(xmax, inst.c[i]);
      }
      for (const auto i : b[y]) {
        ymin = std::min(ymin, inst.c[i]);
        ymax = std::max(ymax, inst.c[i]);
      }
      EXPECT_TRUE(xmax <= ymin || ymax <= xmin);
    }
  }
}

TEST(CedOptimal, SingleBundleProfitMatchesBlendedFormula) {
  const auto inst = random_instance(45, 10);
  const demand::CedModel model(1.5);
  const auto b = ced_optimal_series(inst.v, inst.c, 1.5, 1).back();
  ASSERT_EQ(b.size(), 1u);
  const double profit = ced_bundling_profit(model, inst.v, inst.c, b);
  const double price = model.bundle_price(inst.v, inst.c);
  EXPECT_NEAR(profit, model.total_profit(inst.v, inst.c,
                                         std::vector<double>(10, price)),
              1e-9);
}

TEST(OptimalBundling, ValidatesArguments) {
  const std::vector<double> v{1.0, 2.0};
  const std::vector<double> c{1.0, -1.0};
  EXPECT_THROW(ced_optimal_series(v, c, 2.0, 2), std::invalid_argument);
  EXPECT_THROW(ced_optimal_series(v, std::vector<double>{1.0}, 2.0, 2),
               std::invalid_argument);
  EXPECT_THROW(ced_optimal_series(v, std::vector<double>{1.0, 1.0}, 1.0, 2),
               std::invalid_argument);
  EXPECT_THROW(logit_optimal_series(v, std::vector<double>{1.0, 1.0}, 0.0, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace manytiers::bundling
