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
#include <string>

#include "json/flat_json.hpp"
#include "orchestrator/orchestrator.hpp"
#include "util/file.hpp"

namespace {

using namespace manytiers;

int usage(std::ostream& os, int code) {
  os << "usage: manytiers_orchestrate [options]\n"
        "  --grid NAME          grid to run (default \"default\")\n"
        "  --workers K          shard count == worker processes (default "
        "4)\n"
        "  --timeout-ms T       per-worker wall-clock timeout (0 = none; "
        "with no\n"
        "                       --heartbeat-timeout-ms either, a wedged "
        "worker hangs\n"
        "                       the run forever — a warn event is logged)\n"
        "  --heartbeat-timeout-ms T   kill a worker whose heartbeat file "
        "is older\n"
        "                       than T ms (0 = heartbeats off); workers "
        "beat every\n"
        "                       max(10, T/4) ms\n"
        "  --retries N          extra attempts per shard (default 2)\n"
        "  --backoff-ms B       base retry backoff, doubles per attempt "
        "(default 250)\n"
        "  --hedge-after-ms T   spawn one backup attempt for a shard still "
        "running\n"
        "                       after T ms; first valid part wins, the "
        "loser is\n"
        "                       killed, and no retry budget is consumed; "
        "if both\n"
        "                       attempts finish with byte-different parts "
        "the run\n"
        "                       exits 1 (determinism violation)\n"
        "  --hedge-multiplier X hedge a shard after X times the median "
        "completed-\n"
        "                       attempt duration (needs >= 1 completed "
        "shard;\n"
        "                       --hedge-after-ms takes precedence)\n"
        "  --resume             resume a killed run from the manifest in "
        "--work-dir;\n"
        "                       valid parts are kept, the rest re-run "
        "(grid,\n"
        "                       overrides, and --workers must be "
        "unchanged)\n"
        "  --per-point          forward schema v2 per-point capture "
        "vectors\n"
        "  --keep-parts         keep part files and worker logs on "
        "success\n"
        "  --out PATH           merged report destination (default "
        "stdout)\n"
        "  --work-dir PATH      part files + worker logs (default "
        "<out>.parts)\n"
        "  --worker PATH        manytiers_batch binary (default: next to "
        "this one)\n"
        "  --worker-threads N   --threads forwarded to each worker\n"
        "  --event-log PATH     structured ORCH_JSON event log (default "
        "stderr)\n"
        "  --trace PATH         run every worker with --trace and write "
        "ONE\n"
        "                       merged Chrome-trace-event JSON timeline "
        "(worker\n"
        "                       spans + supervisor lifecycle spans, "
        "pid-tagged)\n"
        "                       to PATH; load it at ui.perfetto.dev\n"
        "  --metrics            run every worker with --metrics and emit "
        "the\n"
        "                       merged counters/histograms as one "
        "\"metrics\"\n"
        "                       ORCH_JSON event after the report merge\n"
        "  --metrics-interval-ms N   (needs --metrics) stream delta "
        "snapshots\n"
        "                       every N ms per worker; winners' series "
        "merge\n"
        "                       onto one timeline at "
        "<work-dir>/metrics.series.json\n"
        "  --trace-sample N     (needs --trace) keep 1-in-N per-task "
        "spans,\n"
        "                       chosen by a deterministic hash of the "
        "global\n"
        "                       task index — identical across workers\n"
        "  --fault SPEC         MANYTIERS_FAULT plan injected into "
        "workers\n"
        "  --kill-after-shards N   TEST HOOK: SIGKILL this process right "
        "after the\n"
        "                       Nth shard completes (exercises --resume)\n"
        "  --seed S / --n-flows N / --max-bundles B   grid overrides\n"
        "exit codes: 0 success, 1 orchestration failure, 2 usage error\n";
  return code;
}

// Duration and multiplier flags are doubles ("1.5" is the canonical
// hedging multiplier): strict numbers, non-negative and finite.
double non_negative(const std::string& text, const std::string& flag) {
  const double value = json::parse_number<double>(text, flag);
  if (!(value >= 0.0) || value > 1e18) {  // !(>= 0) also rejects NaN
    throw std::invalid_argument(flag + ": not a non-negative number: " + text);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  orchestrator::Options options;
  std::string out_path;
  std::string event_log_path;

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
      } else if (arg == "--grid") {
        options.grid = next();
      } else if (arg == "--workers") {
        options.workers = json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--timeout-ms") {
        options.timeout_ms = non_negative(next(), arg);
      } else if (arg == "--heartbeat-timeout-ms") {
        options.heartbeat_timeout_ms = non_negative(next(), arg);
      } else if (arg == "--hedge-after-ms") {
        options.hedge_after_ms = non_negative(next(), arg);
      } else if (arg == "--hedge-multiplier") {
        options.hedge_multiplier = non_negative(next(), arg);
      } else if (arg == "--resume") {
        options.resume = true;
      } else if (arg == "--per-point") {
        options.per_point = true;
      } else if (arg == "--kill-after-shards") {
        options.kill_after_shards =
            json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--retries") {
        options.retries = json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--backoff-ms") {
        options.backoff_ms = non_negative(next(), arg);
      } else if (arg == "--keep-parts") {
        options.keep_parts = true;
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--work-dir") {
        options.work_dir = next();
      } else if (arg == "--worker") {
        options.worker_binary = next();
      } else if (arg == "--worker-threads") {
        options.worker_threads = json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--event-log") {
        event_log_path = next();
      } else if (arg == "--trace") {
        options.trace = next();
      } else if (arg == "--metrics") {
        options.metrics = true;
      } else if (arg == "--metrics-interval-ms") {
        options.metrics_interval_ms = non_negative(next(), arg);
      } else if (arg == "--trace-sample") {
        options.trace_sample = json::parse_number<std::uint64_t>(next(), arg);
      } else if (arg == "--fault") {
        options.fault = next();
      } else if (arg == "--seed") {
        options.seed = json::parse_number<std::uint64_t>(next(), arg);
        options.seed_given = true;
      } else if (arg == "--n-flows") {
        options.n_flows = json::parse_number<std::size_t>(next(), arg);
      } else if (arg == "--max-bundles") {
        options.max_bundles = json::parse_number<std::size_t>(next(), arg);
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(std::cerr, 2);
      }
    }
    if (options.workers == 0) {
      throw std::invalid_argument("--workers must be >= 1");
    }
    if (options.metrics_interval_ms > 0.0 && !options.metrics) {
      throw std::invalid_argument("--metrics-interval-ms requires --metrics");
    }
    if (options.trace_sample != 0 && options.trace.empty()) {
      throw std::invalid_argument("--trace-sample requires --trace");
    }
    if (options.worker_binary.empty()) {
      // Default: the batch binary that ships next to this one.
      options.worker_binary =
          (std::filesystem::path(argv[0]).parent_path() / "manytiers_batch")
              .string();
    }
    if (!std::filesystem::exists(options.worker_binary)) {
      throw std::invalid_argument("worker binary not found: \"" +
                                  options.worker_binary +
                                  "\" (point --worker at manytiers_batch)");
    }
    if (options.work_dir.empty()) {
      options.work_dir = out_path.empty() ? std::string("manytiers_orchestrate.work")
                                          : out_path + ".parts";
    }
  } catch (const std::exception& err) {
    std::cerr << "manytiers_orchestrate: " << err.what() << "\n";
    return 2;
  }

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
