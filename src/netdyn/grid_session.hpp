// Delta propagation, layers 2-3: from re-costed flows to recalibrated
// markets and re-evaluated grid cells.
//
// A GridSession evaluates an ExperimentGrid over a DynamicFlows core
// (the live Internet2 backbone and the grid's flow sets). Applying an
// update batch lets the core re-cost the flows the DistanceDelta names
// and report the datasets that repriced; the session then re-runs
// run_grid for exactly those datasets' cell blocks (cells enumerate
// dataset-major, so a dirty dataset is one contiguous splice). Clean
// cells are never re-evaluated.
//
// The maintained report is byte-identical (modulo timing fields) to
// scratch_report(), a full-grid run_grid over DynamicFlows::
// scratch_flows(). That equivalence holds after every batch and at any
// thread count, and is what the netdyn ctest suite pins.
#pragma once

#include <cstdint>
#include <span>

#include "driver/runner.hpp"
#include "netdyn/flows.hpp"

namespace manytiers::netdyn {

struct GridSessionOptions {
  std::size_t threads = 0;  // forwarded to run_grid
};

class GridSession {
 public:
  // Evaluates the grid up front; at epoch 0 the report equals a plain
  // run_grid of the grid bit-for-bit.
  explicit GridSession(driver::ExperimentGrid grid,
                       GridSessionOptions options = {});

  const driver::BatchReport& report() const { return report_; }
  std::uint64_t epoch() const { return flows_.network().epoch(); }

  struct ApplyStats {
    DistanceDelta delta;
    std::size_t recosted_flows = 0;
    std::size_t dirty_datasets = 0;
    std::size_t dirty_cells = 0;
    std::size_t dirty_markets = 0;  // (demand, cost, point) calibrations rerun
  };

  // Apply one update batch end to end: advance the network, re-cost
  // affected flows, re-evaluate dirty cell blocks in place.
  ApplyStats apply(std::span<const NetworkUpdate> batch);
  ApplyStats apply(const NetworkUpdate& update) {
    return apply(std::span<const NetworkUpdate>(&update, 1));
  }

  // The recompute-everything reference for the current epoch.
  driver::BatchReport scratch_report() const;

 private:
  std::size_t threads_;
  DynamicFlows flows_;
  driver::BatchReport report_;
};

}  // namespace manytiers::netdyn
