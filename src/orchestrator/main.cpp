// manytiers_orchestrate: supervised multi-process batch runs.
//
// Splits a named grid into K shards, runs each in its own
// manytiers_batch worker process, supervises them (timeouts, heartbeat
// liveness, bounded exponential-backoff retries, hedged straggler
// retries, part-file integrity checks), and writes a merged report
// byte-identical to the unsharded single-process run. A durable
// manifest in the work dir makes a killed run resumable with --resume.
//
//   manytiers_orchestrate --grid default --workers 4 --out default.batch
//   manytiers_orchestrate --grid smoke --workers 3 --timeout-ms 60000
//       --retries 2 --event-log run.events --out smoke.batch
//   manytiers_orchestrate --grid smoke --workers 3 --resume
//       --work-dir smoke.batch.parts --out smoke.batch
//
// Exit codes: 0 success, 1 orchestration failure (a shard exhausted its
// retries, a hedge race exposed nondeterministic workers, or
// merge/report IO failed), 2 usage error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "driver/fault.hpp"
#include "json/flat_json.hpp"
#include "orchestrator/orchestrator.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"

using namespace manytiers;

int main(int argc, char** argv) {
  orchestrator::Options options;
  std::string out_path;
  std::string event_log_path;

  cli::Flags flags("manytiers_orchestrate", "[options]",
                   "exit codes: 0 success, 1 orchestration failure, "
                   "2 usage error\n");
  options.add_to(flags);
  flags
      .value("--workers", "K", "shard count == worker processes (default 4)",
             options.workers)
      .value("--timeout-ms", "T",
             "per-worker wall-clock timeout (0 = none)",
             cli::millis(options.timeout_ms))
      .value("--heartbeat-timeout-ms", "T",
             "kill a worker whose heartbeat is T ms stale (0 = off)",
             cli::millis(options.heartbeat_timeout_ms))
      .value("--retries", "N", "extra attempts per shard (default 2)",
             options.retries)
      .value("--backoff-ms", "B",
             "base retry backoff, doubles per attempt (default 250)",
             cli::millis(options.backoff_ms))
      .value("--hedge-after-ms", "T",
             "hedge a shard still running after T ms (0 = off)",
             cli::millis(options.hedge_after_ms))
      .value("--hedge-multiplier", "X",
             "hedge after X times the median attempt duration",
             cli::bounded(options.hedge_multiplier, 0.0,
                          std::numeric_limits<double>::max()))
      .toggle("--resume",
              "resume a killed run from the manifest in --work-dir",
              options.resume)
      .toggle("--per-point", "forward schema v2 per-point capture vectors",
              options.per_point)
      .toggle("--keep-parts", "keep part files and worker logs on success",
              options.keep_parts)
      .value("--out", "PATH", "merged report destination (default stdout)",
             out_path)
      .value("--work-dir", "PATH",
             "part files + worker logs (default <out>.parts)",
             options.work_dir)
      .value("--worker", "PATH",
             "manytiers_batch binary (default: next to this one)",
             options.worker_binary)
      .value("--worker-threads", "N", "--threads forwarded to each worker",
             options.worker_threads)
      .value("--event-log", "PATH",
             "structured ORCH_JSON event log (default stderr)", event_log_path)
      .value("--trace", "PATH",
             "trace every worker into ONE merged Chrome-trace timeline",
             options.trace)
      .toggle("--metrics",
              "emit the workers' merged metrics as one ORCH_JSON event",
              options.metrics)
      .value("--metrics-interval-ms", "N",
             "stream worker ticks to <work-dir>/metrics.series.json",
             cli::millis(options.metrics_interval_ms))
      .value("--trace-sample", "N",
             "keep 1-in-N per-task spans, same set in every worker",
             options.trace_sample)
      .value("--fault", "SPEC", "MANYTIERS_FAULT plan injected into workers",
             options.fault)
      .value("--kill-after-shards", "N",
             "TEST HOOK: SIGKILL self after the Nth shard completes",
             options.kill_after_shards)
      .check([&] {
        if (options.workers == 0) {
          throw std::invalid_argument("--workers: must be >= 1");
        }
        if (options.metrics_interval_ms > 0.0 && !options.metrics) {
          throw std::invalid_argument(
              "--metrics-interval-ms: requires --metrics");
        }
        if (options.trace_sample != 0 && options.trace.empty()) {
          throw std::invalid_argument("--trace-sample: requires --trace");
        }
        driver::parse_fault_plan(options.fault);  // a bad plan fails here
        if (options.worker_binary.empty()) {
          options.worker_binary =
              (std::filesystem::path(argv[0]).parent_path() /
               "manytiers_batch")
                  .string();
        }
        if (!std::filesystem::exists(options.worker_binary)) {
          throw std::invalid_argument(
              "--worker: binary not found: \"" + options.worker_binary +
              "\" (point --worker at manytiers_batch)");
        }
        if (options.work_dir.empty()) {
          options.work_dir = out_path.empty() ? "manytiers_orchestrate.work"
                                              : out_path + ".parts";
        }
      });
  if (const auto code = flags.parse(argc, argv)) return *code;

  try {
    std::ofstream event_file;
    if (!event_log_path.empty()) {
      event_file.open(event_log_path);
      if (!event_file) {
        std::cerr << "manytiers_orchestrate: cannot open event log: "
                  << event_log_path << "\n";
        return 2;
      }
    }
    orchestrator::EventLog log(event_log_path.empty()
                                   ? static_cast<std::ostream&>(std::cerr)
                                   : event_file);

    const auto result = orchestrator::orchestrate(options, log);
    if (!result.ok) {
      std::cerr << "manytiers_orchestrate: run FAILED; per-shard summary:\n";
      for (const auto& shard : result.shards) {
        std::cerr << "  shard " << shard.shard << ": "
                  << (shard.ok ? "ok" : shard.failure) << " ("
                  << shard.attempts << " attempt"
                  << (shard.attempts == 1 ? "" : "s") << ")\n";
      }
      std::cerr << "no report written (partial results are never emitted); "
                   "worker logs kept under "
                << options.work_dir << "\n";
      return 1;
    }

    if (out_path.empty()) {
      std::cout << result.merged;
    } else {
      util::write_file_durable(out_path, result.merged);
    }
    std::string line = "BENCH_JSON ";
    json::Writer(line)
        .field("bench", "manytiers_orchestrate:" + options.grid)
        .field("n", options.workers)
        .field("wall_ms", result.wall_ms)
        .field("threads", options.workers)
        .close();
    std::cerr << line << '\n';
    if (result.hedge_mismatches > 0) {
      // Nondeterministic workers void the byte-identical-merge contract.
      // The report above was written (the winning parts did validate, and
      // the bytes are evidence for debugging) but the run must not look
      // clean to scripts.
      std::cerr << "manytiers_orchestrate: DETERMINISM VIOLATION: "
                << result.hedge_mismatches
                << " hedged shard(s) produced byte-different parts from two "
                   "successful attempts; the merged report cannot be "
                   "guaranteed byte-identical to the unsharded run (see "
                   "hedge-mismatch events)\n";
      return 1;
    }
  } catch (const std::exception& err) {
    // Unknown grid names and similar option-shaped problems surface from
    // orchestrate() as invalid_argument: usage, not runtime.
    const bool is_usage =
        dynamic_cast<const std::invalid_argument*>(&err) != nullptr;
    std::cerr << "manytiers_orchestrate: " << err.what() << "\n";
    return is_usage ? 2 : 1;
  }
  return 0;
}
