// The serving snapshot: every answer the daemon can give, precomputed.
//
// A Snapshot is the immutable output of one calibration pass over a
// grid spec: per (dataset, demand, cost) market it holds the calibrated
// Market plus a priced tier schedule for every (strategy, bundle count)
// combination the grid names — built by the exact run_strategy_series /
// price_bundles path the batch driver evaluates, so the daemon and
// `manytiers_batch` answer from one pricing truth (the determinism test
// byte-compares the two).
//
// Snapshots are published to reader threads through one atomic
// shared_ptr swap (RCU-style): queries load the pointer once, answer
// entirely from that object, and tag the response with its epoch, so a
// concurrent `reload` can recalibrate and swap without a reader ever
// observing a half-updated schedule. Nothing in this header mutates
// after build_snapshot returns.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "driver/grid.hpp"
#include "pricing/counterfactual.hpp"
#include "serve/protocol.hpp"

namespace manytiers::serve {

// One pricing tier schedule: the strategy's bundling at one tier count,
// reduced to what queries need — per-tier price + relative-cost span
// (tiers sorted ascending by cost range), the flow -> tier map, and the
// capture the batch driver would report for this cell.
struct Schedule {
  double capture = 0.0;
  std::vector<TierInfo> tiers;
  std::vector<std::size_t> tier_of_flow;  // expanded flow index -> tier
};

// One calibrated market: a (dataset, demand, cost) grid cell at the
// grid's base parameters, plus the cost context needed to price flows
// that were never in the calibration set.
struct MarketEntry {
  std::string key;  // "dataset/demand/cost"
  workload::DatasetKind dataset{};
  demand::DemandKind demand{};
  driver::CostKind cost{};
  pricing::Market market;
  std::unique_ptr<cost::CostModel> cost_model;
  // The calibration set's maximum-distance raw flow. Pricing a new
  // (q, d, class) flow evaluates the cost model on {proxy, query}, so
  // distance-normalized models (linear, concave) see the market's own
  // d_max and the query's relative cost lands on the same scale as the
  // calibrated flows'.
  workload::Flow proxy;
  // schedules[strategy_slot][b - 1], strategy_slot in grid order.
  std::vector<std::vector<Schedule>> schedules;

  explicit MarketEntry(pricing::Market calibrated)
      : market(std::move(calibrated)) {}

  const Schedule& schedule(std::size_t strategy_slot,
                           std::size_t bundles) const {
    return schedules[strategy_slot][bundles - 1];
  }
};

struct Snapshot {
  std::uint64_t epoch = 0;
  driver::ExperimentGrid grid;
  // Enumeration order (dataset-major, then demand, then cost). Entries
  // are shared_ptr so a derived snapshot (updates reload) can share the
  // clean markets of its predecessor and rebuild only the dirty ones.
  std::vector<std::shared_ptr<const MarketEntry>> markets;
  std::unordered_map<std::string, std::size_t> by_key;

  const MarketEntry* find_market(std::string_view key) const;
  // Slot of `strategy` within grid.strategies; nullopt when the grid
  // does not serve it.
  std::optional<std::size_t> strategy_slot(pricing::Strategy strategy) const;
};

// "EU ISP/ced/linear" — cell_key without the strategy part.
std::string market_key(workload::DatasetKind dataset,
                       demand::DemandKind demand, driver::CostKind cost);

// Resolve a strategy display name ("Optimal", "Profit-weighted", ...).
std::optional<pricing::Strategy> strategy_from_name(std::string_view name);

struct SnapshotBuildOptions {
  std::size_t threads = 0;  // markets calibrate via util::parallel_for
  std::uint64_t epoch = 1;
  // When set, calibrate from these flow sets (one per grid dataset, in
  // grid.datasets order; must outlive the call) instead of generating
  // them — the dynamic-network path builds reference snapshots from its
  // own re-costed flows.
  const std::vector<workload::FlowSet>* flows_override = nullptr;
};

// Throws std::invalid_argument on invalid grids and on sweep grids (the
// daemon serves base-parameter markets; a sweep axis has no single
// answer per cell).
void validate_serve_grid(const driver::ExperimentGrid& grid);

// Calibrate every market of the grid and price every strategy x bundle
// count. Throws what validate_serve_grid throws.
std::shared_ptr<const Snapshot> build_snapshot(
    const driver::ExperimentGrid& grid, const SnapshotBuildOptions& options = {});

// Calibrate and price one (dataset, demand, cost) market of the grid
// from the given dataset flows — the unit build_snapshot fans out over
// and the dynamic reload path rebuilds dirty markets with.
std::shared_ptr<const MarketEntry> build_market_entry(
    const driver::ExperimentGrid& grid, const workload::FlowSet& flows,
    std::size_t ds_i, std::size_t dem_i, std::size_t cost_i);

// --- Query evaluators (socket-free, unit-testable) ---

struct Quote {
  std::size_t tier = 0;
  double price = 0.0;
  double rel_cost = 0.0;
};

// Relative cost of a new (q, d, class) flow in this market's cost
// context. `cls` addresses the cost model's classes (regional: 0 metro,
// 1 national, 2 international; dest-type: 0 on-net, 1 off-net;
// continuous models: must be 0). Throws std::invalid_argument on a bad
// class, a non-finite demand or distance, non-positive demand or
// negative distance.
double query_relative_cost(const MarketEntry& entry, double q, double d,
                           std::size_t cls);

// Quote a new flow against a tier schedule: the first tier whose
// relative-cost span contains the flow's relative cost, or the nearest
// span when none does (ties resolve to the lower tier). A flow past
// either end of the schedule is quoted as if it sat at that end.
Quote price_flow(const MarketEntry& entry, const Schedule& schedule, double q,
                 double d, std::size_t cls);

// Re-quote an existing customer flow (index into the market's expanded
// flow set). Throws std::invalid_argument when out of range.
Quote requote_flow(const MarketEntry& entry, const Schedule& schedule,
                   std::size_t flow);

}  // namespace manytiers::serve
