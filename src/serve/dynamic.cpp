#include "serve/dynamic.hpp"

#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace manytiers::serve {

// The grid is checked before any flows generate.
DynamicState::DynamicState(const driver::ExperimentGrid& grid)
    : flows_((validate_serve_grid(grid), grid)) {}

DynamicState::Derived DynamicState::apply(
    const Snapshot& prev, std::span<const netdyn::NetworkUpdate> batch,
    std::uint64_t epoch, std::size_t threads) {
  static obs::Counter& rebuilt_counter =
      obs::Registry::instance().counter("serve.markets_recalibrated");
  const obs::Span span("serve.dynamic_reload",
                       obs::trace_args("updates", batch.size()));

  const std::vector<std::size_t> dirty = flows_.apply(batch).dirty;

  auto next = std::make_shared<Snapshot>();
  next->epoch = epoch;
  next->grid = prev.grid;
  next->markets = prev.markets;  // clean entries stay shared
  next->by_key = prev.by_key;    // same keys, same slots

  Derived out;
  if (!dirty.empty()) {
    // Markets enumerate dataset-major, so dataset ds owns the contiguous
    // index block [ds * per_ds, (ds + 1) * per_ds).
    const driver::ExperimentGrid& grid = flows_.grid();
    const std::size_t n_cost = grid.cost_kinds.size();
    const std::size_t n_dem = grid.demand_kinds.size();
    const std::size_t per_ds = n_dem * n_cost;
    std::vector<std::size_t> rebuild;
    rebuild.reserve(dirty.size() * per_ds);
    for (const std::size_t ds : dirty) {
      for (std::size_t k = 0; k < per_ds; ++k) {
        rebuild.push_back(ds * per_ds + k);
      }
    }
    util::parallel_for(
        rebuild.size(),
        [&](std::size_t j) {
          const std::size_t m = rebuild[j];
          const std::size_t cost_i = m % n_cost;
          const std::size_t dem_i = (m / n_cost) % n_dem;
          const std::size_t ds_i = m / n_cost / n_dem;
          next->markets[m] = build_market_entry(grid, flows_.flows()[ds_i],
                                                ds_i, dem_i, cost_i);
        },
        threads);
    out.recalibrated = rebuild.size();
    rebuilt_counter.add(rebuild.size());
  }
  out.snapshot = std::move(next);
  return out;
}

std::shared_ptr<const Snapshot> DynamicState::scratch_snapshot(
    std::uint64_t epoch, std::size_t threads) const {
  const std::vector<workload::FlowSet> flows = flows_.scratch_flows();
  return build_snapshot(flows_.grid(), {.threads = threads,
                                        .epoch = epoch,
                                        .flows_override = &flows});
}

}  // namespace manytiers::serve
