// manytiers_batch: the batch experiment CLI.
//
// Runs a named ExperimentGrid (optionally one shard of it, or all shards
// in-process with an explicit merge) and writes the consolidated
// BATCH_JSON report. Partial shard reports written with --shard-index can
// later be folded together with --merge, reproducing the unsharded
// report bit-for-bit.
//
//   manytiers_batch --grid smoke --out report.batch
//   manytiers_batch --grid default --shard-index 1 --shard-count 4
//       --out part1.batch
//   manytiers_batch --merge part0.batch part1.batch ... --out full.batch
//   manytiers_batch --grid smoke --shards 2 --no-timing --out merged.batch
//
// Exit codes (the orchestrator's contract): 0 success, 1 runtime
// failure, 2 usage error. `--out` files are written atomically and
// durably (temp file + fsync + rename), so a supervisor never reads a
// torn report after a clean exit.
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "driver/fault.hpp"
#include "driver/grid.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "json/flat_json.hpp"
#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "obs/trace.hpp"
#include "util/file.hpp"

namespace {

using namespace manytiers;

int usage(std::ostream& os, int code) {
  os << "usage: manytiers_batch [options]\n"
        "  --grid NAME          grid to run (default \"default\")\n"
        "  --list-grids         print known grid names and exit\n"
        "  --threads N          worker threads (0 = MANYTIERS_THREADS / "
        "hardware)\n"
        "  --shard-index I      run only shard I (requires --shard-count)\n"
        "  --shard-count K      total number of shards (default 1)\n"
        "  --shards K           run all K shards in-process, then merge\n"
        "  --merge F1 F2 ...    merge partial shard reports instead of "
        "running\n"
        "  --out PATH           write the report to PATH (default stdout); "
        "the\n"
        "                       file appears atomically (fsync + rename)\n"
        "  --no-timing          omit wall-clock fields (byte-stable output)\n"
        "  --per-point          schema v2: store per-point capture vectors\n"
        "                       (one \"point\" record per parameter point)\n"
        "  --heartbeat PATH     touch PATH periodically while computing, so "
        "a\n"
        "                       supervisor can tell slow from hung\n"
        "  --heartbeat-interval-ms N   beat period (default 100)\n"
        "  --trace PATH         write a Chrome-trace-event JSON timeline to\n"
        "                       PATH (Perfetto-loadable; MANYTIERS_TRACE is\n"
        "                       the flagless equivalent). Never changes the\n"
        "                       report bytes.\n"
        "  --metrics PATH       write an obs-registry metrics sidecar\n"
        "                       (counters/gauges/histograms, one JSON record\n"
        "                       per line) to PATH after the report\n"
        "  --metrics-interval-ms N  also stream delta snapshots every N ms\n"
        "                       to the PATH-derived .series.json (requires\n"
        "                       --metrics); flushed heartbeat-style during\n"
        "                       the run, never changes the report bytes\n"
        "  --trace-sample N     keep 1/N of per-task sweep spans (hash-based\n"
        "                       and deterministic across shard processes);\n"
        "                       lifecycle spans are always kept (0/1 = all)\n"
        "  --seed S             dataset seed override\n"
        "  --n-flows N          flows per dataset override\n"
        "  --max-bundles B      bundle-count ceiling override\n"
        "exit codes:\n"
        "  0  success\n"
        "  1  runtime failure (grid evaluation, merge, or report IO)\n"
        "  2  usage error (bad flags, unknown grid, malformed "
        "MANYTIERS_FAULT)\n"
        "test hooks: MANYTIERS_FAULT=kind:shard[:times],... with kind in\n"
        "  {crash, stall, slow, corrupt, partial} injects deterministic\n"
        "  worker faults (slow takes a duration: slow:shard:ms[:times]);\n"
        "  MANYTIERS_FAULT_ATTEMPT gates specs to retry attempts < times.\n";
  return code;
}

// Liveness beacon: touches the heartbeat file on an interval from a
// background thread for as long as the object lives. The supervisor
// reads the file's mtime; a worker that stops being scheduled (hung,
// swapped out, SIGSTOPped) stops beating, while a merely slow one keeps
// beating through the whole computation.
class Heartbeat {
 public:
  Heartbeat(std::string path, double interval_ms)
      : path_(std::move(path)), interval_ms_(interval_ms) {
    manytiers::util::touch_file(path_);  // first beat before any work
    thread_ = std::thread([this] { run(); });
  }

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                             interval_ms_));
      if (stop_) break;
      lock.unlock();
      manytiers::util::touch_file(path_);
      lock.lock();
    }
  }

  std::string path_;
  double interval_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string grid_name = "default";
  std::string out_path;
  std::vector<std::string> merge_inputs;
  bool merge_mode = false;
  bool include_timing = true;
  std::size_t threads = 0;
  std::size_t shards_in_process = 0;
  driver::ShardPlan shard;
  bool shard_index_given = false;
  bool per_point = false;
  std::string heartbeat_path;
  double heartbeat_interval_ms = 100.0;
  std::string trace_path;
  std::uint64_t trace_sample = 0;
  std::string metrics_path;
  double metrics_interval_ms = 0.0;
  std::uint64_t seed = 0;
  bool seed_given = false;
  std::size_t n_flows = 0;
  std::size_t max_bundles = 0;

  // Phase 1 — argument parsing, grid resolution, and the fault-plan
  // environment. Any failure here is a usage error: exit 2.
  driver::ExperimentGrid grid;
  driver::FaultPlan fault_plan;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument(arg + " requires a value");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else if (arg == "--list-grids") {
        for (const auto name : driver::grid_names()) {
          std::cout << name << '\n';
        }
        return 0;
      } else if (arg == "--grid") {
        grid_name = next();
      } else if (arg == "--threads") {
        threads = json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--shard-index") {
        shard.index = json::parse_number<std::size_t>(next(), arg);
        shard_index_given = true;
      } else if (arg == "--shard-count") {
        shard.count = json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--shards") {
        shards_in_process = json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--merge") {
        merge_mode = true;
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--no-timing") {
        include_timing = false;
      } else if (arg == "--per-point") {
        per_point = true;
      } else if (arg == "--heartbeat") {
        heartbeat_path = next();
      } else if (arg == "--heartbeat-interval-ms") {
        heartbeat_interval_ms = static_cast<double>(
            json::parse_number<std::uint64_t>(next(), arg));
        if (heartbeat_interval_ms <= 0.0) {
          throw std::invalid_argument("--heartbeat-interval-ms must be >= 1");
        }
      } else if (arg == "--trace") {
        trace_path = next();
      } else if (arg == "--trace-sample") {
        trace_sample = json::parse_number<std::uint64_t>(next(), arg);
      } else if (arg == "--metrics") {
        metrics_path = next();
      } else if (arg == "--metrics-interval-ms") {
        metrics_interval_ms = json::parse_number<double>(next(), arg);
      } else if (arg == "--seed") {
        seed = json::parse_number<std::uint64_t>(next(), arg);
        seed_given = true;
      } else if (arg == "--n-flows") {
        n_flows = json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--max-bundles") {
        max_bundles = json::parse_number<std::size_t>(next(), arg);
      } else if (merge_mode && !arg.empty() && arg.front() != '-') {
        merge_inputs.push_back(arg);
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(std::cerr, 2);
      }
    }
    if (merge_mode && (shards_in_process != 0 || shard_index_given)) {
      throw std::invalid_argument("--merge cannot be combined with --shards "
                                  "or --shard-index");
    }
    if (shards_in_process != 0 && shard_index_given) {
      throw std::invalid_argument(
          "--shards (in-process) and --shard-index (single shard) conflict");
    }
    if (merge_mode && merge_inputs.size() < 2) {
      throw std::invalid_argument("--merge needs at least two report files");
    }
    if (!merge_mode) {
      grid = driver::named_grid(grid_name);
      if (seed_given) grid.base.seed = seed;
      if (n_flows != 0) grid.base.n_flows = n_flows;
      if (max_bundles != 0) grid.max_bundles = max_bundles;
    }
    if (metrics_interval_ms > 0.0 && metrics_path.empty()) {
      throw std::invalid_argument(
          "--metrics-interval-ms requires --metrics");
    }
    fault_plan = driver::fault_plan_from_env();
  } catch (const std::exception& err) {
    std::cerr << "manytiers_batch: " << err.what() << "\n";
    return 2;
  }

  // Observability is opt-in and must never change what the run computes
  // or reports (the byte-identity ctest pins this): tracing and the
  // metrics registry only add relaxed atomic work on the side.
  if (!trace_path.empty()) {
    obs::Tracer::instance().start(trace_path);
  } else {
    obs::maybe_start_trace_from_env();
  }
  if (obs::Tracer::instance().active()) {
    std::string process_name = "manytiers_batch " + grid_name;
    if (shard_index_given) {
      process_name += " shard " + std::to_string(shard.index) + "/" +
                      std::to_string(shard.count);
    }
    obs::Tracer::instance().set_process_name(process_name);
  }
  if (trace_sample != 0) obs::Tracer::instance().set_sample_every(trace_sample);
  if (!metrics_path.empty()) obs::set_enabled(true);

  // The fault hook (see driver/fault.hpp): hermetic crash / stall /
  // slow / corrupt / partial injection for orchestrator tests, keyed on
  // this worker's shard index and the supervisor's retry counter. The
  // stall fault hangs BEFORE the heartbeat starts (a wedged process
  // never beats), while slow straggles with the heartbeat running — the
  // two sides of the liveness distinction the supervisor must make.
  bool corrupt_output = false;
  bool partial_output = false;
  std::size_t slow_ms = 0;
  if (const auto fault = driver::fault_for(
          fault_plan, shard_index_given ? shard.index : 0,
          driver::fault_attempt_from_env())) {
    switch (fault->kind) {
      case driver::FaultKind::Crash:
        std::cerr << "manytiers_batch: injected crash\n";
        std::_Exit(70);
      case driver::FaultKind::Stall:
        std::cerr << "manytiers_batch: injected stall\n";
        std::this_thread::sleep_for(std::chrono::minutes(10));
        return 1;  // a supervisor timeout should have fired long ago
      case driver::FaultKind::Slow:
        slow_ms = fault->delay_ms;
        break;
      case driver::FaultKind::Corrupt:
        corrupt_output = true;
        break;
      case driver::FaultKind::Partial:
        partial_output = true;
        break;
    }
  }

  // Phase 2 — evaluation, merge, and report IO. Failures exit 1.
  try {
    std::optional<Heartbeat> heartbeat;
    if (!heartbeat_path.empty()) {
      heartbeat.emplace(heartbeat_path, heartbeat_interval_ms);
    }
    // Heartbeat-style metrics stream: ticks while the grid evaluates,
    // final tick taken before the end-of-run sidecar is written.
    std::optional<obs::PeriodicSnapshotter> snapshotter;
    if (metrics_interval_ms > 0.0) {
      snapshotter.emplace(obs::PeriodicSnapshotter::Options{
          obs::series_path_for(metrics_path), metrics_interval_ms});
      snapshotter->start();
    }
    if (slow_ms != 0) {
      // Deterministic straggler: alive (beating) but slow.
      std::cerr << "manytiers_batch: injected slow (" << slow_ms << " ms)\n";
      std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
    }
    driver::BatchReport report;
    if (merge_mode) {
      std::vector<driver::BatchReport> parts;
      parts.reserve(merge_inputs.size());
      for (const auto& path : merge_inputs) {
        std::ifstream in(path);
        if (!in) {
          throw std::invalid_argument("cannot open report file: " + path);
        }
        parts.push_back(driver::read_report(in));
      }
      report = driver::merge_shards(parts);
    } else if (shards_in_process > 1) {
      std::vector<driver::BatchReport> parts;
      parts.reserve(shards_in_process);
      for (std::size_t k = 0; k < shards_in_process; ++k) {
        parts.push_back(driver::run_grid(
            grid, {threads, {k, shards_in_process}, per_point}));
      }
      report = driver::merge_shards(parts);
    } else {
      report = driver::run_grid(grid, {threads, shard, per_point});
    }

    const std::string payload =
        driver::report_to_string(report, include_timing);
    if (out_path.empty()) {
      std::cout << payload;
    } else if (corrupt_output) {
      // Injected corruption: leave a torn file (over half, so the grid
      // header parses but the cell list is truncated) and exit clean —
      // exactly what a worker killed mid-write would leave behind
      // without the durable write path.
      std::ofstream out(out_path, std::ios::binary);
      out << payload.substr(0, payload.size() / 2 + payload.size() / 4);
      std::cerr << "manytiers_batch: injected corrupt output\n";
    } else if (partial_output) {
      // Injected mid-write death: a torn prefix lands at the
      // destination (bypassing the durable temp+rename path) and the
      // process dies as if SIGKILLed while writing. A resuming
      // supervisor must detect this part as invalid and re-run it.
      std::ofstream out(out_path, std::ios::binary);
      out << payload.substr(0, payload.size() / 4);
      out.flush();
      std::cerr << "manytiers_batch: injected partial write + crash\n";
      std::_Exit(70);
    } else {
      util::write_file_durable(out_path, payload);
    }
    if (snapshotter) snapshotter->stop();
    if (!metrics_path.empty()) {
      // Sidecar after the report: a supervisor that sees a valid part
      // file may still find the sidecar missing (worker died between the
      // two writes) and must tolerate that.
      util::write_file_durable(
          metrics_path,
          obs::snapshot_to_json(obs::Registry::instance().snapshot()));
    }
    obs::Tracer::instance().flush();
    // Perf-trajectory breadcrumb, same shape as the bench binaries'.
    const std::size_t n_tasks = report.cells.size() * report.points_per_cell;
    std::string line = "BENCH_JSON ";
    json::Writer(line)
        .field("bench", "manytiers_batch:" + report.grid_name)
        .field("n", n_tasks)
        .field("wall_ms", report.wall_ms)
        .field("threads", report.threads)
        .close();
    std::cerr << line << '\n';
  } catch (const std::exception& err) {
    std::cerr << "manytiers_batch: " << err.what() << "\n";
    return 1;
  }
  return 0;
}
