#include "netdyn/grid_session.hpp"

#include <gtest/gtest.h>

#include <string>

#include "driver/report.hpp"
#include "netdyn/testbed.hpp"
#include "topology/internet2.hpp"

namespace manytiers::netdyn {
namespace {

driver::ExperimentGrid small_grid() {
  driver::ExperimentGrid grid = driver::named_grid("smoke");
  grid.base.n_flows = 30;  // keep per-batch re-evaluation quick
  return grid;
}

// Timing-stripped render: the byte-stable artifact both reports must
// agree on.
std::string stable(const driver::BatchReport& report) {
  return driver::report_to_string(report, /*include_timing=*/false);
}

// The acceptance invariant, end to end: applying generated update
// batches incrementally yields a maintained BATCH_JSON report that is
// byte-identical to recompute-from-scratch after every batch — across
// thread counts.
TEST(GridSession, ReportStaysByteIdenticalToScratchAcrossBatches) {
  const auto backbone = topology::internet2_network();
  const auto batches = generate_update_sequence(backbone, 17,
                                                {.n_batches = 4,
                                                 .batch_size = 2});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    GridSession session(small_grid(), {.threads = threads});
    ASSERT_EQ(stable(session.report()), stable(session.scratch_report()))
        << "t" << threads << " epoch 0";
    for (std::size_t b = 0; b < batches.size(); ++b) {
      session.apply(batches[b]);
      ASSERT_EQ(stable(session.report()), stable(session.scratch_report()))
          << "t" << threads << " batch " << b;
    }
  }
}

// Thread-count independence of the maintained report itself: the same
// sequence applied under different thread counts lands on the same
// bytes.
TEST(GridSession, ReportIsThreadCountInvariant) {
  const auto backbone = topology::internet2_network();
  const auto batches = generate_update_sequence(backbone, 29,
                                                {.n_batches = 3});
  GridSession serial(small_grid(), {.threads = 1});
  GridSession parallel(small_grid(), {.threads = 5});
  ASSERT_EQ(stable(serial.report()), stable(parallel.report()));
  for (const auto& batch : batches) {
    serial.apply(batch);
    parallel.apply(batch);
    ASSERT_EQ(stable(serial.report()), stable(parallel.report()));
  }
}

TEST(GridSession, Epoch0MatchesTheStaticPipeline) {
  // With no updates applied, the session's report equals a plain
  // run_grid of the same grid — the dynamic layer adds nothing at epoch
  // 0.
  const auto grid = small_grid();
  GridSession session(grid, {.threads = 2});
  driver::RunOptions run;
  run.threads = 2;
  const auto reference = driver::run_grid(grid, run);
  EXPECT_EQ(stable(session.report()), stable(reference));
}

TEST(GridSession, CleanBatchesTouchNoCells) {
  GridSession session(small_grid(), {.threads = 2});

  // A reweigh of a link the flows do ride, applied twice: the second
  // application is distance-neutral, so nothing downstream reprices.
  NetworkUpdate u;
  u.kind = NetworkUpdate::Kind::LinkWeight;
  u.a = "Denver";
  u.b = "Kansas City";
  u.length_miles = 2500.0;
  const auto first = session.apply(u);
  EXPECT_GT(first.dirty_cells, 0u);
  EXPECT_GT(first.recosted_flows, 0u);

  const auto second = session.apply(u);
  EXPECT_TRUE(second.delta.empty());
  EXPECT_EQ(second.recosted_flows, 0u);
  EXPECT_EQ(second.dirty_datasets, 0u);
  EXPECT_EQ(second.dirty_cells, 0u);
  EXPECT_EQ(session.epoch(), 2u);  // the epoch still advanced
  EXPECT_EQ(stable(session.report()), stable(session.scratch_report()));
}

TEST(GridSession, DirtyStatsCoverOnlyTheBoundDataset) {
  // smoke = {EU ISP, Internet2, CDN} x 2 demand x 1 cost x 2 strategies:
  // only the Internet2 block (4 cells) may reprice on a topology change.
  const auto grid = small_grid();
  GridSession session(grid, {.threads = 2});
  NetworkUpdate u;
  u.kind = NetworkUpdate::Kind::LinkDown;
  u.a = "Chicago";
  u.b = "New York";
  const auto stats = session.apply(u);
  EXPECT_EQ(stats.dirty_datasets, 1u);
  EXPECT_EQ(stats.dirty_cells, grid.demand_kinds.size() *
                                   grid.cost_kinds.size() *
                                   grid.strategies.size());
  EXPECT_EQ(stable(session.report()), stable(session.scratch_report()));
}

}  // namespace
}  // namespace manytiers::netdyn
