#include "netdyn/grid_session.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace manytiers::netdyn {

GridSession::GridSession(driver::ExperimentGrid grid,
                         GridSessionOptions options)
    : threads_(options.threads), flows_(std::move(grid)) {
  driver::RunOptions run;
  run.threads = threads_;
  run.flows_override = &flows_.flows();
  report_ = driver::run_grid(flows_.grid(), run);
}

GridSession::ApplyStats GridSession::apply(
    std::span<const NetworkUpdate> batch) {
  static obs::Counter& dirty_markets_counter =
      obs::Registry::instance().counter("netdyn.dirty_markets");
  static obs::Counter& dirty_cells_counter =
      obs::Registry::instance().counter("netdyn.dirty_cells");
  const obs::Span span("netdyn.grid_session.apply",
                       obs::trace_args("updates", batch.size()));

  DynamicFlows::Delta delta = flows_.apply(batch);
  ApplyStats stats{std::move(delta.distances), delta.recosted_flows,
                   delta.dirty.size()};

  // Cells enumerate dataset-major, so dataset i owns the contiguous block
  // [i * block, (i + 1) * block). Re-evaluating a one-dataset sub-grid
  // yields that block's cells in the same order, computed from the same
  // (re-costed) flows run_grid would see in a full run — splicing them in
  // reproduces the full-grid report byte-for-byte, timing aside.
  const driver::ExperimentGrid& grid = flows_.grid();
  const std::size_t block = grid.demand_kinds.size() *
                            grid.cost_kinds.size() * grid.strategies.size();
  const std::size_t markets = grid.demand_kinds.size() *
                              grid.cost_kinds.size() *
                              driver::points_per_cell(grid);
  for (const std::size_t ds : delta.dirty) {
    driver::ExperimentGrid sub = grid;
    sub.datasets = {grid.datasets[ds]};
    const std::vector<workload::FlowSet> sub_flows{flows_.flows()[ds]};
    driver::RunOptions run;
    run.threads = threads_;
    run.flows_override = &sub_flows;
    driver::BatchReport part = driver::run_grid(sub, run);
    std::move(part.cells.begin(), part.cells.end(),
              report_.cells.begin() + ds * block);
    stats.dirty_cells += block;
    stats.dirty_markets += markets;
  }
  dirty_cells_counter.add(stats.dirty_cells);
  dirty_markets_counter.add(stats.dirty_markets);
  return stats;
}

driver::BatchReport GridSession::scratch_report() const {
  const std::vector<workload::FlowSet> flows = flows_.scratch_flows();
  driver::RunOptions run;
  run.threads = threads_;
  run.flows_override = &flows;
  return driver::run_grid(flows_.grid(), run);
}

}  // namespace manytiers::netdyn
