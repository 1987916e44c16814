// Delta propagation, serve layer: the daemon-side dynamic network and
// the derived-snapshot reload path.
//
// A DynamicState derives serving snapshots over a netdyn::DynamicFlows
// core (the live Internet2 backbone and the grid's flow sets, with the
// topology-bound datasets re-costed per batch). An updates reload
// applies one batch and derives the next Snapshot from the previous
// one: markets of clean datasets are shared (same shared_ptr, zero
// recalibration), markets of dirty datasets are rebuilt through the
// same build_market_entry path build_snapshot fans out over — so the
// derived snapshot is byte-identical to a full rebuild from the same
// re-costed flows, and a link failure turns into a republished snapshot
// in the time it takes to recalibrate the handful of markets it
// touched.
//
// State advances only when apply() succeeds; an invalid batch throws
// out of DynamicNetwork::apply before anything here mutates, so the
// daemon's dynamic view never desyncs from the serving snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "driver/grid.hpp"
#include "netdyn/flows.hpp"
#include "serve/snapshot.hpp"

namespace manytiers::serve {

class DynamicState {
 public:
  // Generates the grid's flow sets at its base parameters (the exact
  // flows the daemon's startup build_snapshot used — same generators,
  // same seed) and captures the topology binding of every
  // network-backed dataset. Throws on sweep grids, like build_snapshot.
  explicit DynamicState(const driver::ExperimentGrid& grid);

  struct Derived {
    std::shared_ptr<const Snapshot> snapshot;
    std::size_t recalibrated = 0;  // market entries rebuilt
  };

  // Apply one update batch to the live network and derive the successor
  // of `prev` at `epoch`: re-cost the bound flows the delta touches,
  // rebuild the dirty datasets' market entries (in parallel), share the
  // rest. Throws std::invalid_argument on an invalid batch, leaving the
  // network, the flows, and the served snapshot untouched.
  Derived apply(const Snapshot& prev,
                std::span<const netdyn::NetworkUpdate> batch,
                std::uint64_t epoch, std::size_t threads);

  // Reference path for tests: recompute distances from scratch, re-cost
  // every bound flow, rebuild the whole snapshot. Equals the snapshot
  // apply() derived (same epoch) byte-for-byte.
  std::shared_ptr<const Snapshot> scratch_snapshot(std::uint64_t epoch,
                                                   std::size_t threads) const;

  const netdyn::DynamicNetwork& network() const { return flows_.network(); }

 private:
  netdyn::DynamicFlows flows_;
};

}  // namespace manytiers::serve
