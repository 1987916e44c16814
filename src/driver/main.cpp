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
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"
#include "util/parallel.hpp"

namespace {

using namespace manytiers;

constexpr const char* kFooter =
    "exit codes: 0 success, 1 runtime failure (grid evaluation, merge, or\n"
    "  report IO), 2 usage error (bad flags, unknown grid, malformed\n"
    "  MANYTIERS_FAULT, MANYTIERS_FAULT_ATTEMPT or MANYTIERS_THREADS)\n"
    "test hooks: MANYTIERS_FAULT=kind:shard[:times],... with kind in\n"
    "  {crash, stall, slow, corrupt, partial} injects deterministic\n"
    "  worker faults (slow takes a duration: slow:shard:ms[:times]);\n"
    "  MANYTIERS_FAULT_ATTEMPT gates specs to retry attempts < times.\n";

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
  driver::GridChoice choice;
  cli::ObsFlags obs_flags;
  std::string out_path;
  std::vector<std::string> merge_inputs;
  bool merge_mode = false;
  bool no_timing = false;
  bool per_point = false;
  std::size_t threads = 0;
  std::size_t shards_in_process = 0;
  std::optional<std::size_t> shard_index;
  std::size_t shard_count = 1;
  std::string heartbeat_path;
  double heartbeat_interval_ms = 100.0;
  std::uint64_t trace_sample = 0;

  // Phase 1 — flags, grid resolution, and the MANYTIERS_FAULT* and
  // MANYTIERS_THREADS environment. Any failure here is a usage error:
  // exit 2.
  driver::ExperimentGrid grid;
  driver::FaultPlan fault_plan;
  std::size_t fault_attempt = 0;
  cli::Flags flags("manytiers_batch", "[options] [--merge F1 F2 ...]",
                   kFooter);
  choice.add_to(flags);
  flags
      .value("--threads", "N",
             "worker threads (0 = MANYTIERS_THREADS / hardware)", threads)
      .value("--shard-index", "I", "run only shard I of --shard-count",
             shard_index)
      .value("--shard-count", "K", "total number of shards (default 1)",
             shard_count)
      .value("--shards", "K", "run all K shards in-process, then merge",
             shards_in_process)
      .toggle("--merge", "merge the partial reports that follow, not run",
              merge_mode)
      .value("--out", "PATH",
             "write the report atomically to PATH (default stdout)", out_path)
      .toggle("--no-timing", "omit wall-clock fields (byte-stable output)",
              no_timing)
      .toggle("--per-point", "schema v2: one \"point\" record per point",
              per_point)
      .value("--heartbeat", "PATH",
             "touch PATH periodically while computing (liveness)",
             heartbeat_path)
      .value("--heartbeat-interval-ms", "N", "beat period (default 100)",
             cli::millis(heartbeat_interval_ms, 1.0))
      .value("--trace-sample", "N",
             "keep 1/N per-task sweep spans, same set in every shard",
             trace_sample)
      .positional([&](std::string_view file) {
        if (!merge_mode) {
          throw std::invalid_argument(std::string(file) +
                                      ": unexpected argument");
        }
        merge_inputs.emplace_back(file);
      })
      .check([&] {
        if (merge_mode && (shards_in_process != 0 || shard_index)) {
          throw std::invalid_argument(
              "--merge: cannot be combined with --shards or --shard-index");
        }
        if (shards_in_process != 0 && shard_index) {
          throw std::invalid_argument(
              "--shards: in-process shards conflict with --shard-index");
        }
        if (merge_mode && merge_inputs.size() < 2) {
          throw std::invalid_argument(
              "--merge: needs at least two report files");
        }
        if (!merge_mode) grid = choice.resolve();
        fault_plan = driver::fault_plan_from_env();
        fault_attempt = driver::fault_attempt_from_env();
        util::default_thread_count();  // rejects a malformed MANYTIERS_THREADS
      });
  obs_flags.add_to(flags);
  if (const auto code = flags.parse(argc, argv)) return *code;
  const driver::ShardPlan shard{shard_index.value_or(0), shard_count};

  // Observability is opt-in and must never change what the run computes
  // or reports (the byte-identity ctest pins this).
  std::string process_name = "manytiers_batch " + choice.grid;
  if (shard_index) {
    process_name += " shard " + std::to_string(shard.index) + "/" +
                    std::to_string(shard.count);
  }
  cli::Observability observability(obs_flags, process_name);
  if (trace_sample != 0) obs::Tracer::instance().set_sample_every(trace_sample);

  // The fault hook (see driver/fault.hpp): hermetic crash / stall /
  // slow / corrupt / partial injection for orchestrator tests, keyed on
  // this worker's shard index and the supervisor's retry counter. The
  // stall fault hangs BEFORE the heartbeat starts (a wedged process
  // never beats), while slow straggles with the heartbeat running — the
  // two sides of the liveness distinction the supervisor must make.
  bool corrupt_output = false;
  bool partial_output = false;
  std::size_t slow_ms = 0;
  if (const auto fault =
          driver::fault_for(fault_plan, shard.index, fault_attempt)) {
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
    observability.start_series();
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
        driver::report_to_string(report, !no_timing);
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
    // Sidecar after the report: a supervisor that sees a valid part file
    // may still find the sidecar missing (worker died between the two
    // writes) and must tolerate that.
    observability.finish();
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
