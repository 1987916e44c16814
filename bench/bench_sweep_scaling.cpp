// Regression guard for the parallel sweep engine (driver::run_grid): run
// one fixed sensitivity-sweep workload (alpha sweep, Optimal bundling,
// both demand models) at 1, 2, 4 and hardware_concurrency threads,
// report wall-clock speedup over the 1-thread run, and verify the
// 1-thread result is bit-identical to a serial reference (a plain loop
// over parameter points calling run_strategy at every bundle count).
#include "bench_common.hpp"

#include <limits>
#include <thread>

#include "util/parallel.hpp"

namespace {

using namespace manytiers;

struct Workload {
  std::vector<workload::FlowSet> flows;  // one EU ISP flow set
  std::vector<double> alphas;
  std::size_t max_bundles = 6;

  // One cell per demand model: the flow set under linear cost, Optimal
  // bundling, swept over the alphas.
  driver::Envelope sweep(demand::DemandKind kind, std::size_t threads) const {
    auto grid = driver::alpha_sweep_grid();
    grid.name = "sweep-scaling";
    grid.datasets = {workload::DatasetKind::EuIsp};
    grid.demand_kinds = {kind};
    grid.strategies = {pricing::Strategy::Optimal};
    grid.max_bundles = max_bundles;
    grid.sweep.values = alphas;
    grid.base.n_flows = flows[0].size();
    const driver::RunOptions options{
        .threads = threads, .shard = {}, .flows_override = &flows};
    return driver::run_grid(grid, options).cells[0].sweep;
  }
};

Workload fixed_workload(std::size_t n_flows, std::vector<double> alphas) {
  std::vector<workload::FlowSet> flows;
  flows.push_back(
      workload::generate_eu_isp({.seed = 42, .n_flows = n_flows}));
  return {.flows = std::move(flows), .alphas = std::move(alphas)};
}

// The serial per-b path: calibrate each point and evaluate every bundle
// count through run_strategy, reducing min/max in parameter order.
driver::Envelope serial_reference(const Workload& w, demand::DemandKind kind) {
  const auto cost = cost::make_linear_cost(0.2);
  driver::Envelope out;
  out.min_capture.assign(w.max_bundles, std::numeric_limits<double>::max());
  out.max_capture.assign(w.max_bundles, -std::numeric_limits<double>::max());
  for (const double alpha : w.alphas) {
    pricing::DemandSpec spec;
    spec.kind = kind;
    spec.alpha = alpha;
    const auto market =
        pricing::Market::calibrate(w.flows[0], spec, *cost, 20.0);
    for (std::size_t b = 1; b <= w.max_bundles; ++b) {
      const double capture =
          pricing::run_strategy(market, pricing::Strategy::Optimal, b).capture;
      out.min_capture[b - 1] = std::min(out.min_capture[b - 1], capture);
      out.max_capture[b - 1] = std::max(out.max_capture[b - 1], capture);
    }
    ++out.points;
  }
  return out;
}

bool bitwise_equal(const driver::Envelope& a, const driver::Envelope& b) {
  return a.min_capture == b.min_capture && a.max_capture == b.max_capture &&
         a.points == b.points;
}

}  // namespace

int main() {
  bench::header("Sweep scaling — parallel sensitivity engine",
                "Fixed alpha-sweep workload (300 flows, 8 alphas, Optimal "
                "bundling) at 1/2/4/hw threads.");

  const auto w =
      fixed_workload(300, {1.05, 1.1, 1.3, 1.5, 2.0, 3.0, 5.0, 10.0});
  std::vector<std::size_t> thread_counts{1, 2, 4};
  const std::size_t hw = util::default_thread_count();
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }
  std::cout << "hardware_concurrency: "
            << std::thread::hardware_concurrency() << "\n\n";

  bool all_identical = true;
  for (const auto kind : {demand::DemandKind::ConstantElasticity,
                          demand::DemandKind::Logit}) {
    std::cout << bench::demand_name(kind) << ":\n";
    driver::Envelope reference;
    const double reference_ms = bench::run_timed(
        std::string("sweep_prechange_") +
            (kind == demand::DemandKind::ConstantElasticity ? "ced" : "logit"),
        w.flows[0].size(), 1, [&] { reference = serial_reference(w, kind); });
    std::cout << "  pre-change per-b path (serial): "
              << util::format_double(reference_ms, 2) << " ms\n";
    util::TextTable table({"Threads", "wall ms", "speedup"});
    double base_ms = 0.0;
    for (const std::size_t threads : thread_counts) {
      driver::Envelope result;
      const double ms = bench::run_timed(
          std::string("sweep_scaling_") +
              (kind == demand::DemandKind::ConstantElasticity ? "ced"
                                                              : "logit"),
          w.flows[0].size(), threads,
          [&] { result = w.sweep(kind, threads); });
      if (threads == 1) base_ms = ms;
      const bool identical = bitwise_equal(result, reference);
      all_identical = all_identical && identical;
      table.add_row(std::to_string(threads),
                    {ms, base_ms > 0.0 ? base_ms / ms : 0.0}, 2);
      std::cout << "  threads=" << threads
                << (identical ? "  matches serial reference bit-for-bit"
                              : "  MISMATCH vs serial reference!")
                << '\n';
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  // Large-n leg: 20k flows make each DP fill the widest any sweep
  // runs (a serial fill inside each parallel_for task). Results must
  // still be bit-identical across thread counts.
  {
    const auto large = fixed_workload(20000, {1.1, 2.0});
    std::cout << "Large-n leg (20000 flows, CED, 2 alphas):\n";
    driver::Envelope reference;
    bool have_reference = false;
    std::vector<std::size_t> large_threads{1};
    if (hw != 1) large_threads.push_back(hw);
    for (const std::size_t threads : large_threads) {
      driver::Envelope result;
      bench::run_timed(
          "sweep_scaling_large_ced", large.flows[0].size(), threads,
          [&] {
            result =
                large.sweep(demand::DemandKind::ConstantElasticity, threads);
          },
          bench::TimingOptions{.warmup = 0, .reps = 3});
      if (!have_reference) {
        reference = result;
        have_reference = true;
      }
      const bool identical = bitwise_equal(result, reference);
      all_identical = all_identical && identical;
      std::cout << "  threads=" << threads
                << (identical ? "  matches threads=1 bit-for-bit"
                              : "  MISMATCH vs threads=1!")
                << '\n';
    }
    std::cout << '\n';
  }

  std::cout << (all_identical
                    ? "All thread counts reproduce the serial reference "
                      "exactly.\n"
                    : "ERROR: parallel sweep diverged from the serial "
                      "reference.\n");
  return all_identical ? 0 : 1;
}
