// batch-costmodels: the costmodels grid (Figs. 10-13 family) through
// driver::run_grid in this process, at one thread, n = 1500 flows, over
// four dataset seeds the run seed draws from a pool of eight.
//
// Timed window (fixed work): `rounds` repetitions of {run_grid + write
// the BATCH_JSON report} for each of the four seeds. An op is one grid
// task (one capture_series over 1..6 tiers); reads are the tasks that
// never enter the Optimal DP (the Cost- and Profit-weighted ones).
//
// The traced run replays the same grid through each module's public
// functions with a timer around every call, and checks that the replay
// reproduces the timed report byte for byte.
#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "harness.hpp"
#include "obs/registry.hpp"
#include "pricing/counterfactual.hpp"
#include "pricing/engine.hpp"
#include "pricing/scenario.hpp"

namespace perfbench {

namespace {

namespace driver = manytiers::driver;
namespace pricing = manytiers::pricing;
namespace workload = manytiers::workload;

constexpr std::size_t kFlows = 1500;
// The dataset seeds a run draws its grids from. The committed reference
// table (reference/costmodels_n1500.tsv) covers exactly these.
constexpr std::array<std::uint64_t, 8> kPoolSeeds = {1, 2, 3, 4, 5, 6, 7, 8};
// Four of the eight per run: a grid's cost depends on its dataset seed
// (4.43-4.99 s over the pool), and drawing four of eight instead of two
// cuts the seed-driven spread by about 40% at the work of two seeds run
// twice.
constexpr std::size_t kSeedsPerRun = 4;
// One round (four grids) took 17-20 s on a 4-vCPU x86 box; the round
// count is sized from --seconds with it, so the work per run is fixed.
constexpr double kNominalRoundS = 19.0;
constexpr std::size_t kSetupReps = 5;
constexpr double kReferenceTol = 1e-9;
constexpr double kCaptureCeiling = 1.0 + 1e-12;
constexpr double kOrderTol = 1e-12;

struct DpCounters {
  std::uint64_t fills = 0, fastpath = 0, fallbacks = 0, cells = 0;

  static DpCounters read() {
    auto& registry = manytiers::obs::Registry::instance();
    return {registry.counter("bundling.dp_fills").value(),
            registry.counter("bundling.dp_fastpath").value(),
            registry.counter("bundling.dp_fallbacks").value(),
            registry.counter("bundling.dp_cells").value()};
  }
  DpCounters operator-(const DpCounters& o) const {
    return {fills - o.fills, fastpath - o.fastpath, fallbacks - o.fallbacks,
            cells - o.cells};
  }
  DpCounters& operator+=(const DpCounters& o) {
    fills += o.fills;
    fastpath += o.fastpath;
    fallbacks += o.fallbacks;
    cells += o.cells;
    return *this;
  }
};

driver::ExperimentGrid grid_for(std::uint64_t dataset_seed) {
  driver::ExperimentGrid grid = driver::costmodels_grid();
  grid.base.seed = dataset_seed;
  grid.base.n_flows = kFlows;
  return grid;
}

// Exactly the flow sets run_grid would generate for the grid itself.
std::vector<workload::FlowSet> generate(const driver::ExperimentGrid& grid) {
  std::vector<workload::FlowSet> flows;
  for (const auto kind : grid.datasets) {
    flows.push_back(workload::generate_dataset(
        kind, {.seed = grid.base.seed, .n_flows = grid.base.n_flows}));
  }
  return flows;
}

// A seeded partial Fisher-Yates over the pool.
std::vector<std::uint64_t> dataset_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> pool(kPoolSeeds.begin(), kPoolSeeds.end());
  for (std::size_t i = 0; i < kSeedsPerRun; ++i) {
    std::swap(pool[i], pool[i + mix64(seed + i) % (pool.size() - i)]);
  }
  pool.resize(kSeedsPerRun);
  return pool;
}

bool is_optimal(const driver::GridCell& cell) {
  return cell.strategy == pricing::Strategy::Optimal;
}

// (dataset seed, cell key) -> capture series.
using Reference = std::map<std::pair<std::uint64_t, std::string>,
                           std::vector<double>>;

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference table " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string seed, key, value;
    std::getline(fields, seed, '\t');
    std::getline(fields, key, '\t');
    std::vector<double> series;
    while (std::getline(fields, value, '\t')) series.push_back(std::stod(value));
    ref[{std::stoull(seed), key}] = std::move(series);
  }
  return ref;
}

std::string format_capture(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The answer checks of one report: every cell against the committed
// reference, Optimal at least every heuristic of its market and
// non-decreasing in tiers, every capture at most 1 + 1e-12. Returns the
// number of cells (tasks) with a wrong answer; raises `overshoot` to
// the largest capture - 1 seen.
std::size_t check_report(const driver::BatchReport& report,
                         std::uint64_t dataset_seed, const Reference& ref,
                         double& overshoot, RunResult& result) {
  std::vector<bool> bad(report.cells.size(), false);
  const auto fail = [&](std::size_t c, const std::string& why) {
    if (!bad[c]) {
      result.error("seed " + std::to_string(dataset_seed) + " " +
                   driver::cell_key(report.cells[c].cell) + ": " + why);
    }
    bad[c] = true;
  };
  std::map<std::string, std::size_t> optimal_of_market;
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const auto& cell = report.cells[c];
    const auto& series = cell.sweep.min_capture;
    if (series != cell.sweep.max_capture || series.size() != 6) {
      fail(c, "malformed capture envelope");
      continue;
    }
    const auto it = ref.find({dataset_seed, driver::cell_key(cell.cell)});
    if (it == ref.end()) {
      fail(c, "no reference captures");
    } else {
      for (std::size_t b = 0; b < series.size(); ++b) {
        if (!(std::abs(series[b] - it->second[b]) <= kReferenceTol)) {
          fail(c, "capture at " + std::to_string(b + 1) + " tiers is " +
                      format_capture(series[b]) + ", reference " +
                      format_capture(it->second[b]));
        }
      }
    }
    for (std::size_t b = 0; b < series.size(); ++b) {
      overshoot = std::max(overshoot, series[b] - 1.0);
      if (!(series[b] <= kCaptureCeiling)) fail(c, "capture above 1 + 1e-12");
      if (is_optimal(cell.cell) && b > 0 &&
          series[b] < series[b - 1] - kOrderTol) {
        fail(c, "Optimal capture decreases at " + std::to_string(b + 1) +
                    " tiers");
      }
    }
    if (is_optimal(cell.cell)) {
      const std::string key = driver::cell_key(cell.cell);
      optimal_of_market[key.substr(0, key.rfind('/'))] = c;
    }
  }
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const auto& cell = report.cells[c];
    if (is_optimal(cell.cell)) continue;
    const std::string key = driver::cell_key(cell.cell);
    const auto opt = optimal_of_market.find(key.substr(0, key.rfind('/')));
    if (opt == optimal_of_market.end()) continue;
    const auto& best = report.cells[opt->second].sweep.min_capture;
    for (std::size_t b = 0; b < best.size(); ++b) {
      if (best[b] < cell.sweep.min_capture[b] - kOrderTol) {
        fail(opt->second, "Optimal below " + key + " at " +
                              std::to_string(b + 1) + " tiers");
      }
    }
  }
  return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), true));
}

// The traced replay: run_grid's work, one public call at a time.
struct Spans {
  double generate = 0, calibrate = 0, baseline = 0, optimal = 0,
         heuristic = 0, price = 0, capture = 0, report_write = 0;
  std::size_t report_bytes = 0;
  double total() const {
    return generate + calibrate + baseline + optimal + heuristic + price +
           capture + report_write;
  }
};

driver::BatchReport traced_replay(const driver::ExperimentGrid& grid,
                                  Spans& spans, std::string& bytes) {
  const std::vector<workload::FlowSet> flows =
      timed(spans.generate, [&] { return generate(grid); });

  // Markets in run_grid's (dataset, demand, cost) order.
  std::vector<pricing::Market> markets;
  timed(spans.calibrate, [&] {
    for (std::size_t ds = 0; ds < grid.datasets.size(); ++ds) {
      for (const auto demand : grid.demand_kinds) {
        for (const auto cost : grid.cost_kinds) {
          pricing::DemandSpec spec;
          spec.kind = demand;
          spec.alpha = grid.base.alpha;
          spec.no_purchase_share = grid.base.s0;
          const auto model = driver::make_cost_model(cost, grid.base.theta);
          markets.emplace_back(pricing::Market::calibrate(
              flows[ds], spec, *model, grid.base.blended_price));
        }
      }
    }
  });
  timed(spans.baseline, [&] {
    for (const auto& market : markets) {
      (void)market.blended_profit();
      (void)market.max_profit();
    }
  });

  const auto cells = driver::enumerate_cells(grid);
  driver::BatchReport report;
  report.grid_name = grid.name;
  report.signature = driver::grid_signature(grid);
  report.max_bundles = grid.max_bundles;
  report.points_per_cell = 1;
  report.threads = 1;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const pricing::Market& market = markets[c / grid.strategies.size()];
    driver::CellResult cell;
    cell.cell = cells[c];
    cell.sweep = driver::empty_envelope(grid.max_bundles);
    cell.sweep.points = 1;
    const auto series =
        timed(is_optimal(cells[c]) ? spans.optimal : spans.heuristic, [&] {
          return pricing::bundling_series(market, cells[c].strategy,
                                          grid.max_bundles);
        });
    for (std::size_t b = 0; b < series.size(); ++b) {
      const pricing::PricedBundling priced =
          timed(spans.price, [&] { return pricing::price_bundles(market, series[b]); });
      const double capture = timed(
          spans.capture, [&] { return pricing::profit_capture(market, priced.profit); });
      cell.sweep.min_capture[b] = capture + 0.0;
      cell.sweep.max_capture[b] = capture + 0.0;
    }
    report.cells.push_back(std::move(cell));
  }
  bytes = timed(spans.report_write, [&] { return driver::report_to_string(report); });
  spans.report_bytes += bytes.size();
  return report;
}

std::string class_counts(std::size_t fallback, std::size_t fastpath,
                         std::size_t heuristic) {
  return json_object({{"optimal_fallback", std::to_string(fallback)},
                      {"optimal_fastpath", std::to_string(fastpath)},
                      {"heuristic", std::to_string(heuristic)}});
}

}  // namespace

void run_batch(const Config& config, RunResult& result) {
  // The registry counts DP fills by kernel (one relaxed add per fill),
  // which is how Optimal tasks split into fallback and fast-path classes.
  manytiers::obs::set_enabled(true);
  const Reference reference = load_reference(config.reference);
  std::vector<driver::ExperimentGrid> grids;
  std::string seed_list;
  for (const std::uint64_t s : dataset_seeds(config.seed)) {
    grids.push_back(grid_for(s));
    seed_list += (seed_list.empty() ? "" : ", ") + std::to_string(s);
  }
  result.details["dataset_seeds"] = "[" + seed_list + "]";
  result.details["n_flows"] = std::to_string(kFlows);
  result.details["threads"] = "1";
  // Pinned like the serve workloads: a migrating single-threaded run
  // picked up whichever CPU its neighbours were loading.
  const std::vector<int> cpus = pinned_set(1);
  pin_thread(cpus);
  result.details["pinned_cpus"] = cpus_json(cpus);

  // Set-up: dataset generation, repeated so its median is steady.
  std::vector<std::vector<workload::FlowSet>> flows;
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    flows.clear();
    for (const auto& grid : grids) flows.push_back(generate(grid));
    setup_times.push_back(seconds_since(start));
  }

  // What the batch program does: run the grid, write the report.
  const auto evaluate = [&](std::size_t g) {
    driver::RunOptions options;
    options.threads = 1;
    options.flows_override = &flows[g];
    driver::BatchReport report = driver::run_grid(grids[g], options);
    (void)driver::report_to_string(report);
    return report;
  };

  double overshoot = 0.0;
  if (!config.trace) {
    const std::size_t rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(config.seconds / kNominalRoundS)));
    std::vector<driver::BatchReport> reports;
    DpCounters dp;
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t g = 0; g < grids.size(); ++g) {
        const DpCounters before = DpCounters::read();
        reports.push_back(evaluate(g));
        dp += DpCounters::read() - before;
      }
    }
    const double wall = seconds_since(start);
    const double cpu = process_cpu_s() - cpu_start;

    // Answer checks, outside the window: the first round against the
    // reference and the capture properties, every later round equal to
    // the first byte for byte.
    std::vector<double> task_us, read_us;
    std::vector<bool> task_optimal;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const std::size_t g = i % grids.size();
      if (i < grids.size()) {
        result.failed += check_report(reports[i], grids[g].base.seed, reference,
                                      overshoot, result);
      } else if (driver::report_to_string(reports[i], false) !=
                 driver::report_to_string(reports[g], false)) {
        result.failed += reports[i].cells.size();
        result.error("round " + std::to_string(i / grids.size()) +
                     " differs from the first");
      }
      for (const auto& cell : reports[i].cells) {
        task_us.push_back(cell.wall_ms * 1000.0);
        task_optimal.push_back(is_optimal(cell.cell));
        if (!is_optimal(cell.cell)) read_us.push_back(cell.wall_ms * 1000.0);
      }
    }
    result.attempted = task_us.size();

    result.metric("setup_s", median(setup_times), "s", setup_times.size());
    const std::size_t n = task_us.size();
    result.metric("wall_s", wall, "s", n);
    result.metric("cpu_s", cpu, "s", n);
    result.metric("peak_rss_mb", process_peak_rss_mb(), "MiB");
    result.metric("ops_per_s", static_cast<double>(n) / wall, "1/s", n);

    // Percentile classes: which class the sample at each rank belongs
    // to, and how the samples beyond it split.
    std::vector<std::size_t> order(task_us.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return task_us[a] < task_us[b]; });
    std::vector<double> sorted_tasks;
    for (const std::size_t i : order) sorted_tasks.push_back(task_us[i]);
    const std::string all = class_counts(dp.fallbacks, dp.fastpath, read_us.size());
    const auto task_classes = [&](const Percentile& p) {
      std::size_t beyond_optimal = 0;
      for (std::size_t r = p.rank; r < order.size(); ++r) {
        beyond_optimal += task_optimal[order[r]] ? 1 : 0;
      }
      return json_object(
          {{"sample", json_string(task_optimal[order[p.rank - 1]] ? "optimal"
                                                                  : "heuristic")},
           {"beyond_optimal", std::to_string(beyond_optimal)},
           {"beyond_heuristic", std::to_string(p.beyond - beyond_optimal)},
           {"all", all}});
    };
    const Percentile p50 = percentile(sorted_tasks, 0.50);
    const Percentile p90 = percentile(sorted_tasks, 0.90);
    report_percentile(result, "op_p50_us", p50, task_classes(p50));
    report_percentile(result, "op_p90_us", p90, task_classes(p90));
    // Reads are the tasks that never enter the DP (the heuristics), as
    // the quotes are on the serve side; their tail is p90 (192 per round).
    std::sort(read_us.begin(), read_us.end());
    report_percentile(result, "read_p50_us", percentile(read_us, 0.50), all);
    report_percentile(result, "read_tail_us", percentile(read_us, 0.90), all);
    result.details["rounds"] = std::to_string(rounds);
    result.details["pricing.capture_overshoot"] = json_number(overshoot);
    std::cout << "pricing.capture_overshoot " << format_capture(overshoot) << "\n";
    return;
  }

  // Traced run: one untraced round for the overhead baseline, then the
  // replay with a timer around every public call.
  double untraced = 0.0;
  std::vector<driver::BatchReport> timed_reports;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const auto start = Clock::now();
    timed_reports.push_back(evaluate(g));
    untraced += seconds_since(start);
  }
  Spans spans;
  double traced = 0.0;
  const DpCounters dp_before = DpCounters::read();
  for (std::size_t g = 0; g < grids.size(); ++g) {
    std::string bytes;
    const auto start = Clock::now();
    const driver::BatchReport replay = traced_replay(grids[g], spans, bytes);
    traced += seconds_since(start);
    result.attempted += timed_reports[g].cells.size();
    if (driver::report_to_string(replay, false) !=
        driver::report_to_string(timed_reports[g], false)) {
      result.failed += timed_reports[g].cells.size();
      result.error("seed " + std::to_string(grids[g].base.seed) +
                   ": traced replay differs from the timed report");
    }
    result.failed += check_report(timed_reports[g], grids[g].base.seed,
                                  reference, overshoot, result);
  }
  const DpCounters dp = DpCounters::read() - dp_before;

  result.metric("workload.generate_s", spans.generate, "s");
  result.metric("pricing.calibrate_s", spans.calibrate, "s");
  result.metric("pricing.baseline_s", spans.baseline, "s");
  result.metric("pricing.price_s", spans.price, "s");
  result.metric("pricing.capture_s", spans.capture, "s");
  result.metric("pricing.capture_overshoot", overshoot, "ratio");
  result.metric("bundling.optimal_s", spans.optimal, "s");
  result.metric("bundling.heuristic_s", spans.heuristic, "s");
  result.metric("bundling.dp_fills", static_cast<double>(dp.fills), "count");
  result.metric("bundling.dp_fastpath", static_cast<double>(dp.fastpath), "count");
  result.metric("bundling.dp_fallbacks", static_cast<double>(dp.fallbacks), "count");
  result.metric("bundling.dp_cells", static_cast<double>(dp.cells), "count");
  result.metric("bundling.fastpath_ratio",
                dp.fills == 0 ? 0.0
                              : static_cast<double>(dp.fastpath) /
                                    static_cast<double>(dp.fills),
                "ratio");
  result.metric("driver.report_write_s", spans.report_write, "s");
  result.metric("driver.report_bytes", static_cast<double>(spans.report_bytes),
                "bytes");
  // The replay's wall includes dataset generation, which the untraced
  // window leaves to set-up; compare like with like.
  result.metric("bench.trace_overhead_frac",
                (traced - spans.generate) / untraced - 1.0, "ratio");
  result.metric("bench.unattributed_frac", (traced - spans.total()) / traced,
                "ratio");
  result.details["traced_wall_s"] = json_number(traced);
  result.details["untraced_wall_s"] = json_number(untraced);
}

int write_batch_reference(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return 1;
  }
  out << "# costmodels grid, n_flows=" << kFlows
      << ", one thread: dataset seed, cell key, capture at 1..6 tiers\n";
  for (const std::uint64_t seed : kPoolSeeds) {
    driver::RunOptions options;
    options.threads = 1;
    const driver::BatchReport report = driver::run_grid(grid_for(seed), options);
    for (const auto& cell : report.cells) {
      out << seed << '\t' << driver::cell_key(cell.cell);
      for (const double c : cell.sweep.min_capture) out << '\t' << format_capture(c);
      out << '\n';
    }
    std::cerr << "reference: seed " << seed << " done\n";
  }
  return out.good() ? 0 : 1;
}

}  // namespace perfbench
