#include "driver/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace manytiers::driver {
namespace {

// Small but non-trivial: two datasets, both demand models, an alpha
// sweep, and strategies that exercise the DP and the heuristics.
ExperimentGrid sweep_grid() {
  ExperimentGrid grid;
  grid.name = "runner-test";
  grid.datasets = {workload::DatasetKind::EuIsp,
                   workload::DatasetKind::Internet2};
  grid.demand_kinds = {demand::DemandKind::ConstantElasticity,
                       demand::DemandKind::Logit};
  grid.cost_kinds = {CostKind::Linear};
  grid.strategies = {pricing::Strategy::Optimal,
                     pricing::Strategy::ProfitWeighted,
                     pricing::Strategy::CostDivision};
  grid.max_bundles = 4;
  grid.base.n_flows = 40;
  grid.sweep.kind = SweepAxis::Kind::Alpha;
  grid.sweep.values = {1.1, 1.5, 3.0};
  return grid;
}

void expect_same_payload(const BatchReport& a, const BatchReport& b) {
  ASSERT_EQ(a.signature, b.signature);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_TRUE(a.cells[c].cell == b.cells[c].cell);
    EXPECT_EQ(a.cells[c].sweep.points, b.cells[c].sweep.points);
    // Exact double equality: the engine promises bit-identical envelopes.
    EXPECT_EQ(a.cells[c].sweep.min_capture, b.cells[c].sweep.min_capture)
        << cell_key(a.cells[c].cell);
    EXPECT_EQ(a.cells[c].sweep.max_capture, b.cells[c].sweep.max_capture)
        << cell_key(a.cells[c].cell);
  }
}

TEST(RunGrid, EveryCellFullyEvaluated) {
  const auto grid = sweep_grid();
  const auto report = run_grid(grid, {.threads = 2, .shard = {}});
  EXPECT_EQ(report.grid_name, "runner-test");
  EXPECT_EQ(report.signature, grid_signature(grid));
  EXPECT_EQ(report.points_per_cell, 3u);
  ASSERT_EQ(report.cells.size(), 2u * 2u * 1u * 3u);
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.sweep.points, 3u);
    ASSERT_EQ(cell.sweep.min_capture.size(), grid.max_bundles);
    for (std::size_t b = 0; b < grid.max_bundles; ++b) {
      EXPECT_LE(cell.sweep.min_capture[b], cell.sweep.max_capture[b]);
    }
  }
}

TEST(RunGrid, BitIdenticalAcrossThreadCounts) {
  const auto grid = sweep_grid();
  const auto serial = run_grid(grid, {.threads = 1, .shard = {}});
  for (const std::size_t threads : {2u, 4u}) {
    const auto parallel = run_grid(grid, {.threads = threads, .shard = {}});
    expect_same_payload(serial, parallel);
  }
}

// The reference a sweep cell must equal, written out as a plain loop:
// calibrate the cell's market at each point, evaluate its capture
// series, and fold min/max in point order.
Envelope reference_envelope(const ExperimentGrid& grid, const GridCell& cell) {
  const auto flows = workload::generate_dataset(
      cell.dataset, {.seed = grid.base.seed, .n_flows = grid.base.n_flows});
  const auto cost = make_cost_model(cell.cost, grid.base.theta);
  Envelope out = empty_envelope(grid.max_bundles);
  for (const double value : grid.sweep.values) {
    pricing::DemandSpec spec;
    spec.kind = cell.demand;
    spec.alpha = grid.base.alpha;
    spec.no_purchase_share = grid.base.s0;
    double blended_price = grid.base.blended_price;
    if (grid.sweep.kind == SweepAxis::Kind::Alpha) spec.alpha = value;
    if (grid.sweep.kind == SweepAxis::Kind::BlendedPrice) blended_price = value;
    if (grid.sweep.kind == SweepAxis::Kind::NoPurchaseShare) {
      spec.no_purchase_share = value;
    }
    const auto market =
        pricing::Market::calibrate(flows, spec, *cost, blended_price);
    const auto series =
        pricing::capture_series(market, cell.strategy, grid.max_bundles);
    for (std::size_t b = 0; b < grid.max_bundles; ++b) {
      out.min_capture[b] = std::min(out.min_capture[b], series[b]);
      out.max_capture[b] = std::max(out.max_capture[b], series[b]);
    }
    ++out.points;
  }
  return out;
}

// sweep_grid() swept along `kind` instead of alpha (s0 exists only under
// logit demand).
ExperimentGrid swept_along(SweepAxis::Kind kind, std::vector<double> values) {
  auto grid = sweep_grid();
  grid.sweep = {kind, std::move(values)};
  if (kind == SweepAxis::Kind::NoPurchaseShare) {
    grid.demand_kinds = {demand::DemandKind::Logit};
  }
  return grid;
}

TEST(RunGrid, EverySweepAxisMatchesAReferenceLoopCellByCell) {
  for (const auto& grid :
       {swept_along(SweepAxis::Kind::Alpha, {1.1, 1.5, 3.0}),
        swept_along(SweepAxis::Kind::BlendedPrice, {5.0, 20.0, 30.0}),
        swept_along(SweepAxis::Kind::NoPurchaseShare, {0.05, 0.2, 0.9})}) {
    SCOPED_TRACE(std::string(to_string(grid.sweep.kind)));
    const auto report = run_grid(grid, {.threads = 2, .shard = {}});
    ASSERT_EQ(report.cells.size(), enumerate_cells(grid).size());
    for (const auto& cell : report.cells) {
      const auto expected = reference_envelope(grid, cell.cell);
      // Exact double equality: the engine is this loop, fanned out.
      EXPECT_EQ(cell.sweep.min_capture, expected.min_capture)
          << cell_key(cell.cell);
      EXPECT_EQ(cell.sweep.max_capture, expected.max_capture)
          << cell_key(cell.cell);
      EXPECT_EQ(cell.sweep.points, expected.points);
    }
  }
}

// The paper's robustness sweeps (§4.3.2) as a run_grid grid: one EU ISP
// dataset under linear cost and profit-weighted bundling, four bundles.
ExperimentGrid robustness_grid(SweepAxis::Kind kind, std::vector<double> values,
                               std::vector<demand::DemandKind> demand_kinds) {
  ExperimentGrid grid;
  grid.name = "robustness-test";
  grid.datasets = {workload::DatasetKind::EuIsp};
  grid.demand_kinds = std::move(demand_kinds);
  grid.cost_kinds = {CostKind::Linear};
  grid.strategies = {pricing::Strategy::ProfitWeighted};
  grid.max_bundles = 4;
  grid.sweep = {kind, std::move(values)};
  grid.base.seed = 6;
  grid.base.n_flows = 80;
  return grid;
}

TEST(SweepCaptures, MinNeverExceedsMaxAndCountsPoints) {
  const auto report = run_grid(robustness_grid(
      SweepAxis::Kind::Alpha, {1.1, 2.0, 5.0},
      {demand::DemandKind::ConstantElasticity}));
  ASSERT_EQ(report.cells.size(), 1u);
  const auto& sweep = report.cells[0].sweep;
  EXPECT_EQ(sweep.points, 3u);
  ASSERT_EQ(sweep.min_capture.size(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_LE(sweep.min_capture[b], sweep.max_capture[b] + 1e-12);
  }
}

TEST(SweepCaptures, SinglePointCollapsesMinAndMax) {
  const auto report = run_grid(robustness_grid(
      SweepAxis::Kind::Alpha, {1.1}, {demand::DemandKind::ConstantElasticity}));
  ASSERT_EQ(report.cells.size(), 1u);
  const auto& sweep = report.cells[0].sweep;
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_DOUBLE_EQ(sweep.min_capture[b], sweep.max_capture[b]);
  }
}

TEST(SweepAlpha, Figure14HeadlineHolds) {
  const auto report = run_grid(robustness_grid(
      SweepAxis::Kind::Alpha, {1.05, 1.5, 3.0, 10.0},
      {demand::DemandKind::ConstantElasticity, demand::DemandKind::Logit}));
  ASSERT_EQ(report.cells.size(), 2u);
  for (const auto& cell : report.cells) {
    EXPECT_NEAR(cell.sweep.min_capture[0], 0.0, 1e-6);  // one bundle: no gain
    EXPECT_GE(cell.sweep.min_capture[3], 0.5);  // four bundles stay strong
  }
}

TEST(SweepBlendedPrice, CedCaptureIsExactlyInvariant) {
  const auto report = run_grid(robustness_grid(
      SweepAxis::Kind::BlendedPrice, {5.0, 12.0, 20.0, 30.0},
      {demand::DemandKind::ConstantElasticity}));
  ASSERT_EQ(report.cells.size(), 1u);
  const auto& sweep = report.cells[0].sweep;
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(sweep.min_capture[b], sweep.max_capture[b], 1e-6);
  }
}

TEST(SweepNoPurchaseShare, Figure16Range) {
  const auto report = run_grid(
      robustness_grid(SweepAxis::Kind::NoPurchaseShare, {0.05, 0.2, 0.5, 0.9},
                      {demand::DemandKind::Logit}));
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].sweep.points, 4u);
  EXPECT_GE(report.cells[0].sweep.min_capture[3], 0.5);
}

TEST(SweepNoPurchaseShare, RejectsCedDemand) {
  EXPECT_THROW(
      run_grid(robustness_grid(SweepAxis::Kind::NoPurchaseShare, {0.2},
                               {demand::DemandKind::ConstantElasticity})),
      std::invalid_argument);
}

TEST(SweepCaptures, BitIdenticalAcrossThreadCounts) {
  // Each (cell, point) task owns its output slot and the min/max
  // reduction runs serially in task order, so the envelope must not
  // depend on the worker count — exact double equality, no tolerance,
  // including more workers than a cell has points.
  const auto grid = robustness_grid(
      SweepAxis::Kind::Alpha, {1.05, 1.2, 1.7, 2.5, 4.0, 8.0},
      {demand::DemandKind::ConstantElasticity, demand::DemandKind::Logit});
  const auto serial = run_grid(grid, {.threads = 1, .shard = {}});
  for (const std::size_t threads : {2u, 4u, 7u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_payload(serial, run_grid(grid, {.threads = threads, .shard = {}}));
  }
}

TEST(SweepCaptures, PropagatesCalibrationErrorsFromWorkers) {
  // Grid validation does not range-check swept s0 values, so the points
  // outside (0, 1) fail inside the parallel calibration phase; the error
  // must reach the caller.
  const auto grid =
      robustness_grid(SweepAxis::Kind::NoPurchaseShare, {0.2, 0.5, 1.5, 2.0},
                      {demand::DemandKind::Logit});
  EXPECT_THROW(run_grid(grid, {.threads = 4, .shard = {}}),
               std::invalid_argument);
}

TEST(SweepCaptures, Validates) {
  const auto empty = robustness_grid(SweepAxis::Kind::Alpha, {},
                                     {demand::DemandKind::ConstantElasticity});
  EXPECT_THROW(run_grid(empty), std::invalid_argument);
  const auto one = robustness_grid(SweepAxis::Kind::Alpha, {1.1},
                                   {demand::DemandKind::ConstantElasticity});
  const std::vector<workload::FlowSet> no_flows;
  EXPECT_THROW(run_grid(one, {.threads = 0, .shard = {}, .per_point = false,
                              .flows_override = &no_flows}),
               std::invalid_argument);
  auto zero_bundles = one;
  zero_bundles.max_bundles = 0;
  EXPECT_THROW(run_grid(zero_bundles), std::invalid_argument);
}

TEST(SweepCaptures, RejectsZeroMaxBundlesBeforeCalibrating) {
  // Regression for the silently-empty envelope: max_bundles == 0 must
  // throw up front rather than hand the reduction empty min/max vectors.
  // The sweep's only point cannot calibrate (s0 outside (0, 1)), so the
  // error names max_bundles only if the grid is checked first.
  auto grid = robustness_grid(SweepAxis::Kind::NoPurchaseShare, {1.5},
                              {demand::DemandKind::Logit});
  grid.max_bundles = 0;
  try {
    run_grid(grid);
    FAIL() << "run_grid accepted max_bundles == 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_bundles"), std::string::npos)
        << e.what();
  }
}

TEST(ShardMerge, AnyShardCountReproducesTheUnshardedRun) {
  const auto grid = sweep_grid();
  const auto unsharded = run_grid(grid, {.threads = 2, .shard = {}});
  for (const std::size_t shard_count : {1u, 2u, 3u, 5u}) {
    std::vector<BatchReport> parts;
    for (std::size_t k = 0; k < shard_count; ++k) {
      parts.push_back(run_grid(grid, {.threads = 2, .shard = {k, shard_count}}));
    }
    const auto merged = merge_shards(parts);
    expect_same_payload(unsharded, merged);
  }
}

TEST(ShardMerge, ShardsPartitionTheTasks) {
  const auto grid = sweep_grid();
  const auto parts = std::vector<BatchReport>{
      run_grid(grid, {.threads = 0, .shard = {0, 3}}), run_grid(grid, {.threads = 0, .shard = {1, 3}}),
      run_grid(grid, {.threads = 0, .shard = {2, 3}})};
  std::size_t total = 0;
  for (const auto& part : parts) {
    for (const auto& cell : part.cells) total += cell.sweep.points;
  }
  EXPECT_EQ(total, grid.sweep.values.size() * 12u);  // every task exactly once
}

TEST(ShardMerge, RejectsMalformedShardSets) {
  const auto grid = sweep_grid();
  const auto s0 = run_grid(grid, {.threads = 0, .shard = {0, 2}});
  const auto s1 = run_grid(grid, {.threads = 0, .shard = {1, 2}});

  EXPECT_THROW(merge_shards({}), std::invalid_argument);
  // Duplicate shard.
  EXPECT_THROW(merge_shards({s0, s0}), std::invalid_argument);
  // Incomplete set: shard_count says 2 but only one report.
  EXPECT_THROW(merge_shards({s0}), std::invalid_argument);
  // Mixed grids.
  auto other = grid;
  other.base.seed = 7;
  const auto foreign = run_grid(other, {.threads = 0, .shard = {1, 2}});
  EXPECT_THROW(merge_shards({s0, foreign}), std::invalid_argument);
}

TEST(RunGrid, RejectsBadShardPlans) {
  const auto grid = sweep_grid();
  EXPECT_THROW(run_grid(grid, {.threads = 0, .shard = {0, 0}}), std::invalid_argument);
  EXPECT_THROW(run_grid(grid, {.threads = 0, .shard = {2, 2}}), std::invalid_argument);
  EXPECT_THROW(run_grid(grid, {.threads = 0, .shard = {5, 3}}), std::invalid_argument);
}

TEST(RunGrid, AcceptanceFullDefaultGridShardsBitIdentically) {
  // The PR's acceptance criterion: K = 4 shards of the full default grid
  // merge back to the unsharded report exactly.
  const auto grid = default_grid();
  const auto unsharded = run_grid(grid);
  std::vector<BatchReport> parts;
  for (std::size_t k = 0; k < 4; ++k) {
    parts.push_back(run_grid(grid, {.threads = 0, .shard = {k, 4}}));
  }
  expect_same_payload(unsharded, merge_shards(parts));
}

}  // namespace
}  // namespace manytiers::driver
