#include "driver/runner.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pricing/scenario.hpp"
#include "util/parallel.hpp"

namespace manytiers::driver {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One (cell, parameter point) pair owned by this shard, plus the slot of
// the calibrated market it evaluates against.
struct Task {
  std::size_t cell = 0;
  std::size_t point = 0;
  std::size_t market = 0;
};

}  // namespace

BatchReport run_grid(const ExperimentGrid& grid, const RunOptions& options) {
  const auto cells = enumerate_cells(grid);  // validates the grid
  if (options.shard.count == 0) {
    throw std::invalid_argument("run_grid: shard count must be >= 1");
  }
  if (options.shard.index >= options.shard.count) {
    throw std::invalid_argument(
        "run_grid: shard index " + std::to_string(options.shard.index) +
        " out of range for " + std::to_string(options.shard.count) +
        " shards");
  }
  const auto t_start = Clock::now();
  const std::size_t n_points = points_per_cell(grid);
  const std::size_t n_dem = grid.demand_kinds.size();
  const std::size_t n_cost = grid.cost_kinds.size();
  const std::size_t n_strat = grid.strategies.size();

  // Shared per-run inputs: each dataset generates once (unless the caller
  // supplied re-costed flow sets), each cost model builds once; both are
  // read-only during the parallel phases.
  std::vector<workload::FlowSet> generated;
  if (options.flows_override) {
    if (options.flows_override->size() != grid.datasets.size()) {
      throw std::invalid_argument(
          "run_grid: flows_override needs one flow set per grid dataset");
    }
  } else {
    generated.reserve(grid.datasets.size());
    for (const auto kind : grid.datasets) {
      generated.push_back(workload::generate_dataset(
          kind, {.seed = grid.base.seed, .n_flows = grid.base.n_flows}));
    }
  }
  const std::vector<workload::FlowSet>& flows =
      options.flows_override ? *options.flows_override : generated;
  std::vector<std::unique_ptr<cost::CostModel>> cost_models;
  cost_models.reserve(grid.cost_kinds.size());
  for (const auto kind : grid.cost_kinds) {
    cost_models.push_back(make_cost_model(kind, grid.base.theta));
  }

  // Enumerate this shard's tasks (ascending global order) and the unique
  // markets they touch. A market is one (dataset, demand, cost, point)
  // calibration, shared across the strategy axis.
  const std::size_t total_tasks = cells.size() * n_points;
  std::vector<Task> tasks;
  tasks.reserve(total_tasks / options.shard.count + 1);
  std::unordered_map<std::size_t, std::size_t> market_slot;
  std::vector<std::size_t> market_keys;  // slot -> packed market key
  for (std::size_t g = options.shard.index; g < total_tasks;
       g += options.shard.count) {
    const std::size_t c = g / n_points;
    const std::size_t p = g % n_points;
    const std::size_t cost_i = (c / n_strat) % n_cost;
    const std::size_t dem_i = (c / n_strat / n_cost) % n_dem;
    const std::size_t ds_i = c / n_strat / n_cost / n_dem;
    const std::size_t key =
        ((ds_i * n_dem + dem_i) * n_cost + cost_i) * n_points + p;
    const auto [it, inserted] = market_slot.try_emplace(key, market_keys.size());
    if (inserted) market_keys.push_back(key);
    tasks.push_back({c, p, it->second});
  }

  // The dedupe ratio is the whole point of the market_slot map — surface
  // it: tasks / markets_calibrated is the sharing factor across the
  // strategy axis.
  obs::Registry& registry = obs::Registry::instance();
  static obs::Counter& tasks_counter = registry.counter("driver.tasks");
  static obs::Counter& markets_counter =
      registry.counter("driver.markets_calibrated");
  static obs::Counter& dedup_counter =
      registry.counter("driver.calib_dedup_hits");
  static obs::Histogram& task_us_hist = registry.histogram("driver.task_us");
  tasks_counter.add(tasks.size());
  markets_counter.add(market_keys.size());
  dedup_counter.add(tasks.size() - market_keys.size());

  // Phase 1: calibrate every needed market, one task per market.
  // Calibration is a pure function of the grid, so recalibrating the same
  // market in another shard yields bit-identical state.
  std::vector<std::optional<pricing::Market>> markets(market_keys.size());
  const bool tracing = obs::Tracer::instance().active();
  {
    const obs::Span phase("run_grid.calibrate",
                          obs::trace_args("markets", market_keys.size()));
    util::parallel_for(
        market_keys.size(),
        [&](std::size_t m) {
          const std::size_t key = market_keys[m];
          const std::size_t p = key % n_points;
          const std::size_t cost_i = (key / n_points) % n_cost;
          const std::size_t dem_i = (key / n_points / n_cost) % n_dem;
          const std::size_t ds_i = key / n_points / n_cost / n_dem;
          pricing::DemandSpec spec;
          spec.kind = grid.demand_kinds[dem_i];
          spec.alpha = grid.base.alpha;
          spec.no_purchase_share = grid.base.s0;
          double blended_price = grid.base.blended_price;
          switch (grid.sweep.kind) {
            case SweepAxis::Kind::None:
              break;
            case SweepAxis::Kind::Alpha:
              spec.alpha = grid.sweep.values[p];
              break;
            case SweepAxis::Kind::BlendedPrice:
              blended_price = grid.sweep.values[p];
              break;
            case SweepAxis::Kind::NoPurchaseShare:
              spec.no_purchase_share = grid.sweep.values[p];
              break;
          }
          markets[m].emplace(pricing::Market::calibrate(
              flows[ds_i], spec, *cost_models[cost_i], blended_price));
        },
        options.threads);
  }

  // Phase 2: one fan-out over all tasks. Each task writes its capture
  // series into its own slot; the Market's internal profit cache makes
  // the shared blended/max baselines compute once per market, whichever
  // strategy task gets there first.
  std::vector<std::vector<double>> series(tasks.size());
  std::vector<double> task_ms(tasks.size(), 0.0);
  {
    const obs::Span phase("run_grid.sweep",
                          obs::trace_args("tasks", tasks.size()));
    util::parallel_for(
        tasks.size(),
        [&](std::size_t t) {
          // Per-task span, gated by the deterministic sampler. The key
          // is the GLOBAL task index (cell * n_points + point), which
          // every shard derives identically — so a sampled sharded run
          // stitches into the same task set an unsharded run keeps.
          const std::uint64_t task_key = static_cast<std::uint64_t>(
              tasks[t].cell * n_points + tasks[t].point);
          std::optional<obs::Span> span;
          if (tracing && obs::Tracer::instance().sample_keep(task_key)) {
            span.emplace("run_grid.task",
                         obs::trace_args("cell", tasks[t].cell, "point",
                                         tasks[t].point));
          }
          const auto start = Clock::now();
          series[t] = pricing::capture_series(*markets[tasks[t].market],
                                              cells[tasks[t].cell].strategy,
                                              grid.max_bundles);
          task_ms[t] = ms_since(start);
          task_us_hist.record(task_ms[t] * 1000.0);
        },
        options.threads);
  }

  // Serial envelope reduction in global task order: thread-count
  // independent, and shard partials fold back losslessly (min/max are
  // exactly associative and commutative).
  BatchReport report;
  report.grid_name = grid.name;
  report.signature = grid_signature(grid);
  report.max_bundles = grid.max_bundles;
  report.points_per_cell = n_points;
  report.shard_index = options.shard.index;
  report.shard_count = options.shard.count;
  report.threads =
      options.threads != 0 ? options.threads : util::default_thread_count();
  report.per_point = options.per_point;
  report.cells.reserve(cells.size());
  for (const auto& cell : cells) {
    CellResult result;
    result.cell = cell;
    result.sweep = empty_envelope(grid.max_bundles);
    report.cells.push_back(std::move(result));
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    auto& cell = report.cells[tasks[t].cell];
    for (std::size_t b = 0; b < grid.max_bundles; ++b) {
      // + 0.0 canonicalizes -0.0 (logit B=1 captures produce it): min/max
      // ties between -0.0 and +0.0 keep the first-seen operand, and the
      // first-seen point differs between sharded and unsharded folds.
      const double capture = series[t][b] + 0.0;
      cell.sweep.min_capture[b] = std::min(cell.sweep.min_capture[b], capture);
      cell.sweep.max_capture[b] = std::max(cell.sweep.max_capture[b], capture);
    }
    ++cell.sweep.points;
    cell.wall_ms += task_ms[t];
    if (options.per_point) {
      // Tasks fold in ascending global order, so within a cell the
      // point indices arrive ascending — the order the writer expects.
      cell.detail.push_back({tasks[t].point, std::move(series[t])});
    }
  }
  report.wall_ms = ms_since(t_start);
  return report;
}

}  // namespace manytiers::driver
