// Shared setup for the per-figure benchmark binaries.
//
// Every binary regenerates one table or figure from the paper using the
// paper's default parameters (§4.2.2): price sensitivity alpha = 1.1,
// blended rate P0 = $20, linear cost with base fraction theta = 0.2, and
// logit no-purchase share s0 = 0.2. Datasets are the seeded synthetic
// reproductions of Table 1.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "driver/runner.hpp"
#include "obs/trace.hpp"
#include "pricing/counterfactual.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"
#include "workload/table1.hpp"

namespace manytiers::bench {

struct Defaults {
  double alpha = 1.1;
  double blended_price = 20.0;
  double theta = 0.2;
  double s0 = 0.2;
  std::uint64_t seed = 42;
  std::size_t n_flows = 400;
  std::size_t max_bundles = 6;
};

inline workload::FlowSet dataset(workload::DatasetKind kind,
                                 const Defaults& d = {}) {
  return workload::generate_dataset(kind,
                                    {.seed = d.seed, .n_flows = d.n_flows});
}

inline pricing::Market market(const workload::FlowSet& flows,
                              demand::DemandKind demand_kind,
                              const cost::CostModel& cost_model,
                              const Defaults& d = {}) {
  pricing::DemandSpec spec;
  spec.kind = demand_kind;
  spec.alpha = d.alpha;
  spec.no_purchase_share = d.s0;
  return pricing::Market::calibrate(flows, spec, cost_model, d.blended_price);
}

inline pricing::Market linear_market(workload::DatasetKind kind,
                                     demand::DemandKind demand_kind,
                                     const Defaults& d = {}) {
  const auto flows = dataset(kind, d);
  const auto cost = cost::make_linear_cost(d.theta);
  return market(flows, demand_kind, *cost, d);
}

// Capture-vs-bundles table: one row per strategy (Figs. 8 and 9).
inline util::TextTable capture_table(
    const pricing::Market& m, const std::vector<pricing::Strategy>& strategies,
    std::size_t max_bundles) {
  std::vector<std::string> headers{"Strategy"};
  for (std::size_t b = 1; b <= max_bundles; ++b) {
    headers.push_back("B=" + std::to_string(b));
  }
  util::TextTable table(std::move(headers));
  for (const auto s : strategies) {
    table.add_row(std::string(to_string(s)),
                  pricing::capture_series(m, s, max_bundles), 3);
  }
  return table;
}

// Theta-sweep table (Figs. 10-13): one row per theta, columns are bundle
// counts. As in the paper, profits are normalized to the highest profit
// headroom observed across the whole figure, so plateaus show how much
// attainable profit each theta setting leaves on the table.
template <typename CostFactory>
util::TextTable theta_sweep_table(const workload::FlowSet& flows,
                                  demand::DemandKind kind,
                                  const CostFactory& make_cost,
                                  const std::vector<double>& thetas,
                                  pricing::Strategy strategy,
                                  const Defaults& d = {}) {
  struct Row {
    double theta;
    double original;
    std::vector<double> profits;
  };
  std::vector<Row> rows;
  double best_headroom = 0.0;
  for (const double theta : thetas) {
    const auto cost = make_cost(theta);
    const auto m = market(flows, kind, *cost, d);
    Row row;
    row.theta = theta;
    row.original = pricing::blended_profit(m);
    for (const auto& result :
         pricing::run_strategy_series(m, strategy, d.max_bundles)) {
      row.profits.push_back(result.pricing.profit);
    }
    best_headroom =
        std::max(best_headroom, pricing::max_profit(m) - row.original);
    rows.push_back(std::move(row));
  }
  std::vector<std::string> headers{"theta"};
  for (std::size_t b = 1; b <= d.max_bundles; ++b) {
    headers.push_back("B=" + std::to_string(b));
  }
  util::TextTable table(std::move(headers));
  for (const auto& row : rows) {
    std::vector<double> cells;
    for (const double profit : row.profits) {
      cells.push_back((profit - row.original) / best_headroom);
    }
    table.add_row(util::format_double(row.theta, 2), cells, 3);
  }
  return table;
}

inline const char* demand_name(demand::DemandKind kind) {
  return kind == demand::DemandKind::ConstantElasticity
             ? "Constant Elasticity Demand"
             : "Logit Demand";
}

// Robustness tables (Figs. 14 and 15) of a sweep report: one table per
// demand model, one row per dataset, the envelope minimum per bundle
// count.
inline void print_min_capture(const driver::BatchReport& report) {
  for (const auto kind : {demand::DemandKind::ConstantElasticity,
                          demand::DemandKind::Logit}) {
    std::cout << demand_name(kind) << ":\n";
    util::TextTable table(
        {"Data set", "B=1", "B=2", "B=3", "B=4", "B=5", "B=6"});
    for (const auto& cell : report.cells) {
      if (cell.cell.demand != kind) continue;
      table.add_row(std::string(to_string(cell.cell.dataset)),
                    cell.sweep.min_capture, 3);
    }
    table.print(std::cout);
    std::cout << '\n';
  }
}

inline void header(const char* figure, const char* summary) {
  // The bench binaries take no flags, so MANYTIERS_TRACE is how a run
  // gets a Perfetto timeline; header() is the one call they all share.
  obs::maybe_start_trace_from_env();
  std::cout << "==================================================\n"
            << figure << "\n"
            << summary << "\n"
            << "==================================================\n\n";
}

// --- Timing harness ---
//
// Wall-clock measurement with warmup iterations (caches, allocator, CPU
// frequency settle) followed by `reps` timed repetitions; the reported
// figure is the median, which shrugs off one-off scheduler hiccups that
// poison means. Results are also emitted as one JSON object per line
// (prefixed "BENCH_JSON ") so future PRs can scrape a perf trajectory
// out of bench logs without parsing the human tables.

struct TimingOptions {
  std::size_t warmup = 1;
  std::size_t reps = 5;
};

template <typename Fn>
double median_wall_ms(Fn&& fn, const TimingOptions& opt = {}) {
  for (std::size_t i = 0; i < opt.warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(opt.reps);
  for (std::size_t i = 0; i < opt.reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1
             ? samples[mid]
             : 0.5 * (samples[mid - 1] + samples[mid]);
}

// Process resource footprint from getrusage: peak RSS plus cumulative
// user/system CPU. Reported alongside wall time so bench logs carry a
// memory trajectory too; note max_rss_kb is a process high-water mark,
// so within one binary later benches inherit earlier benches' peak.
struct ResourceUsage {
  long max_rss_kb = 0;
  double cpu_user_s = 0.0;
  double cpu_sys_s = 0.0;
};

inline ResourceUsage resource_usage() {
  ResourceUsage usage;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.max_rss_kb = ru.ru_maxrss;  // Linux reports kilobytes
    usage.cpu_user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    usage.cpu_sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                      static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  }
  return usage;
}

inline void emit_timing_json(const std::string& name, std::size_t n,
                             double wall_ms, std::size_t threads) {
  const ResourceUsage usage = resource_usage();
  std::cout << "BENCH_JSON {\"bench\":\"" << name << "\",\"n\":" << n
            << ",\"wall_ms\":" << wall_ms << ",\"threads\":" << threads
            << ",\"max_rss_kb\":" << usage.max_rss_kb
            << ",\"cpu_user_s\":" << usage.cpu_user_s
            << ",\"cpu_sys_s\":" << usage.cpu_sys_s << "}\n";
}

// Time `fn` (median of reps after warmup), emit the JSON record, and
// return the median for further reporting.
template <typename Fn>
double run_timed(const std::string& name, std::size_t n, std::size_t threads,
                 Fn&& fn, const TimingOptions& opt = {}) {
  const double ms = median_wall_ms(fn, opt);
  emit_timing_json(name, n, ms, threads);
  return ms;
}

}  // namespace manytiers::bench
