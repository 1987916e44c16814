#include "orchestrator/orchestrator.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "driver/grid.hpp"
#include "driver/report.hpp"
#include "json/flat_json.hpp"
#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "obs/trace.hpp"
#include "orchestrator/manifest.hpp"
#include "orchestrator/process.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"

namespace manytiers::orchestrator {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

// One running worker process for a shard. A shard usually has exactly
// one, but hedging can put a primary and a backup in flight at once;
// each attempt owns its own part/log/heartbeat paths (named by `id`) so
// concurrent attempts never write the same file.
struct Attempt {
  std::size_t id = 0;  // globally unique per shard, across retries+hedges
  bool hedge = false;
  pid_t pid = -1;
  Clock::time_point started{};
  Clock::time_point deadline{};
  bool has_deadline = false;
  // Exit status once the pid has been waited on. A pid may be reaped at
  // most once; every wait/kill goes through this cache so a dead attempt
  // that lingers in shard.attempts (e.g. it failed in the same scan pass
  // where a later attempt won) is never waited on a second time — the
  // second waitpid would fail with ECHILD, or worse, SIGKILL a recycled
  // pid.
  std::optional<ExitStatus> reaped;
  bool part_bad = false;  // exited 0 but its part failed validation
  std::uint64_t started_us = 0;  // spawn time on the shared trace timeline
  bool span_emitted = false;     // lifecycle span already in the trace
};

// Supervision state of one shard. A shard cycles Pending -> Running ->
// (Done | Pending-with-backoff | Failed); Running may carry up to two
// live attempts when hedged. A whole wave of attempts must die for one
// unit of retry budget to be consumed.
struct Shard {
  enum class State { Pending, Running, Done, Failed };
  State state = State::Pending;
  std::size_t next_attempt = 0;  // id for the next spawn; == spawned count
  std::size_t failures = 0;      // retry budget consumed (whole waves)
  bool hedged = false;           // backup already spawned for this wave
  bool resumed = false;          // satisfied by a surviving part on resume
  bool hedge_mismatch = false;   // two clean attempts, byte-different parts
  Clock::time_point not_before{};  // backoff gate while Pending
  std::vector<Attempt> attempts;   // live attempts while Running
  std::string last_failure;
  std::optional<manytiers::driver::BatchReport> part;  // validated result
};

// Supervisor-side trace buffer. The orchestrator does NOT run through the
// global Tracer: its atexit flush would rewrite the output file with only
// the supervisor's events, clobbering the stitched worker timelines.
struct TraceCollector {
  bool on = false;
  long pid = static_cast<long>(::getpid());
  std::vector<std::string> events;

  static std::uint64_t now_us() {
    return manytiers::obs::Tracer::instance().now_us();
  }

  // Pid-tagged lifecycle span: one row per shard on the supervisor's
  // process track, spanning spawn -> termination of one attempt.
  void complete(const std::string& name, std::uint64_t ts_us,
                std::uint64_t dur_us, long tid, const std::string& args_json) {
    if (on) {
      events.push_back(
          obs::complete_event(name, ts_us, dur_us, pid, tid, args_json));
    }
  }

  // An instant with at most one numeric arg, rendered by the codec.
  void instant(const std::string& name, long tid, std::string_view arg = {},
               double value = 0.0) {
    if (!on) return;
    std::string args;
    if (!arg.empty()) json::Writer(args).field(arg, value).close();
    events.push_back(obs::instant_event(name, now_us(), pid, tid, args));
  }

  void process_name(const std::string& name) {
    if (on) events.push_back(obs::process_name_event(pid, name));
  }
};

// All work-dir paths go through std::filesystem::path so separators and
// quoting stay correct on every platform.
fs::path manifest_path(const fs::path& work) { return work / "manifest.orch"; }

fs::path part_path(const fs::path& work, std::size_t shard) {
  return work / ("part" + std::to_string(shard) + ".batch");
}

fs::path attempt_part_path(const fs::path& work, std::size_t shard,
                           std::size_t attempt) {
  return work / ("part" + std::to_string(shard) + ".a" +
                 std::to_string(attempt) + ".batch");
}

fs::path log_path(const fs::path& work, std::size_t shard,
                  std::size_t attempt) {
  return work / ("worker" + std::to_string(shard) + ".a" +
                 std::to_string(attempt) + ".log");
}

fs::path heartbeat_path(const fs::path& work, std::size_t shard,
                        std::size_t attempt) {
  return work / ("hb" + std::to_string(shard) + ".a" +
                 std::to_string(attempt));
}

// Observability sidecars mirror the part-file discipline: per-attempt
// files while racing, promoted to a canonical per-shard name when the
// attempt wins (which is also what resume finds).
fs::path metrics_path(const fs::path& work, std::size_t shard) {
  return work / ("part" + std::to_string(shard) + ".metrics.json");
}

fs::path attempt_metrics_path(const fs::path& work, std::size_t shard,
                              std::size_t attempt) {
  return work / ("part" + std::to_string(shard) + ".a" +
                 std::to_string(attempt) + ".metrics.json");
}

// Time-series sidecars are named off the metrics paths by the same rule
// the snapshotter itself uses (strip ".json", append ".series.json"), so
// the supervisor finds exactly the file the worker wrote.
fs::path series_path(const fs::path& work, std::size_t shard) {
  return fs::path(obs::series_path_for(metrics_path(work, shard).string()));
}

fs::path attempt_series_path(const fs::path& work, std::size_t shard,
                             std::size_t attempt) {
  return fs::path(
      obs::series_path_for(attempt_metrics_path(work, shard, attempt).string()));
}

fs::path trace_file_path(const fs::path& work, std::size_t shard) {
  return work / ("part" + std::to_string(shard) + ".trace.json");
}

fs::path attempt_trace_path(const fs::path& work, std::size_t shard,
                            std::size_t attempt) {
  return work / ("part" + std::to_string(shard) + ".a" +
                 std::to_string(attempt) + ".trace.json");
}

SpawnSpec worker_spec(const Options& opt, const fs::path& work,
                      std::size_t shard, std::size_t attempt) {
  SpawnSpec spec;
  spec.argv = {opt.worker_binary,
               "--shard-index", std::to_string(shard),
               "--shard-count", std::to_string(opt.workers),
               "--no-timing",
               "--out",         attempt_part_path(work, shard, attempt)
                                    .string()};
  if (opt.per_point) spec.argv.push_back("--per-point");
  if (opt.worker_threads != 0) {
    spec.argv.push_back("--threads");
    spec.argv.push_back(std::to_string(opt.worker_threads));
  }
  if (opt.heartbeat_timeout_ms > 0.0) {
    // Beat 4x faster than the staleness cap so scheduling jitter on a
    // loaded box cannot fake a dead worker.
    const long interval = std::max<long>(
        10, static_cast<long>(std::lround(opt.heartbeat_timeout_ms / 4.0)));
    spec.argv.push_back("--heartbeat");
    spec.argv.push_back(heartbeat_path(work, shard, attempt).string());
    spec.argv.push_back("--heartbeat-interval-ms");
    spec.argv.push_back(std::to_string(interval));
  }
  for (std::string& arg : opt.args()) spec.argv.push_back(std::move(arg));
  if (!opt.trace.empty()) {
    spec.argv.push_back("--trace");
    spec.argv.push_back(attempt_trace_path(work, shard, attempt).string());
    if (opt.trace_sample != 0) {
      spec.argv.push_back("--trace-sample");
      spec.argv.push_back(std::to_string(opt.trace_sample));
    }
  }
  if (opt.metrics) {
    spec.argv.push_back("--metrics");
    spec.argv.push_back(attempt_metrics_path(work, shard, attempt).string());
    if (opt.metrics_interval_ms > 0.0) {
      char interval_ms[32];
      std::snprintf(interval_ms, sizeof(interval_ms), "%g",
                    opt.metrics_interval_ms);
      spec.argv.push_back("--metrics-interval-ms");
      spec.argv.push_back(interval_ms);
    }
  }
  if (!opt.fault.empty()) {
    spec.env_extra.push_back("MANYTIERS_FAULT=" + opt.fault);
  }
  spec.env_extra.push_back("MANYTIERS_FAULT_ATTEMPT=" +
                           std::to_string(attempt));
  spec.log_path = log_path(work, shard, attempt).string();
  return spec;
}

// Parse + integrity-check one part file; returns the failure reason
// instead of throwing so the supervisor can fold it into retry logic.
std::optional<std::string> load_part(const fs::path& path, const Options& opt,
                                     const driver::ExperimentGrid& grid,
                                     std::size_t shard_index,
                                     std::optional<driver::BatchReport>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "missing part file " + path.string();
  try {
    auto report = driver::read_report(in);
    driver::validate_part(report, grid, shard_index, opt.workers);
    if (report.per_point != opt.per_point) {
      return "part " + path.string() + ": per_point=" +
             std::to_string(report.per_point ? 1 : 0) +
             " does not match this run";
    }
    out = std::move(report);
  } catch (const std::exception& err) {
    return "corrupt part " + path.string() + ": " + err.what();
  }
  return std::nullopt;
}

// Heartbeat age: mtime of the beat file if the worker has touched it,
// otherwise time since the attempt was spawned (covers a worker that
// wedged before its first beat).
double heartbeat_age_ms(const fs::path& hb, const Attempt& attempt) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(hb, ec);
  if (!ec) {
    return std::chrono::duration<double, std::milli>(
               fs::file_time_type::clock::now() - mtime)
        .count();
  }
  return ms_since(attempt.started);
}

double median_of(std::vector<double> values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

}  // namespace

double retry_backoff_ms(double base_ms, std::size_t failures) {
  // 2^64 times the largest base is still finite, so the cap sees a
  // number, not an overflow.
  const auto doublings = std::min<std::size_t>(failures - 1, 64);
  return std::min(std::ldexp(base_ms, static_cast<int>(doublings)),
                  static_cast<double>(cli::kMaxMillis));
}

Result orchestrate(const Options& options, EventLog& log) {
  if (options.workers == 0) {
    throw std::invalid_argument("orchestrate: workers must be >= 1");
  }
  if (options.worker_binary.empty() || !fs::exists(options.worker_binary)) {
    throw std::invalid_argument("orchestrate: worker binary not found: \"" +
                                options.worker_binary + "\"");
  }
  if (options.work_dir.empty()) {
    throw std::invalid_argument("orchestrate: work_dir is required");
  }
  // Resolve the grid now: an unknown grid name or bad override is a
  // caller error, not a worker failure to retry.
  driver::ExperimentGrid grid = options.resolve();
  driver::validate_grid(grid);
  const std::string signature = driver::grid_signature(grid);
  const fs::path work{options.work_dir};
  fs::create_directories(work);

  const auto t_start = Clock::now();
  const std::size_t max_attempts = options.retries + 1;
  std::vector<Shard> shards(options.workers);
  std::size_t open = options.workers;  // shards not yet Done/Failed
  std::error_code ec;

  TraceCollector trace;
  trace.on = !options.trace.empty();
  trace.process_name("manytiers_orchestrate " + options.grid);
  // One lifecycle span per attempt on the supervisor's track (one row
  // per shard), emitted when the attempt terminates — the supervisor
  // knows both endpoints then, so a crashed worker still gets a closed
  // span. The guard makes emission idempotent: a loser reaped in the
  // scan pass and again in finish_shard produces one span.
  const auto emit_attempt_span = [&](std::size_t k, Attempt& attempt,
                                     const std::string& outcome) {
    if (!trace.on || attempt.span_emitted) return;
    attempt.span_emitted = true;
    const std::uint64_t now = TraceCollector::now_us();
    std::string args;
    trace.complete(
        "shard " + std::to_string(k) + " attempt " +
            std::to_string(attempt.id) + (attempt.hedge ? " (hedge)" : ""),
        attempt.started_us,
        now > attempt.started_us ? now - attempt.started_us : 0,
        static_cast<long>(k),
        json::Writer(args).field("pid", attempt.pid)
            .field("hedge", attempt.hedge ? 1 : 0)
            .field("outcome", outcome).close());
  };

  log.write(Event("plan")
                .field("v", std::size_t{1})
                .field("grid", options.grid)
                .field("workers", options.workers)
                .field("timeout_ms", options.timeout_ms)
                .field("retries", options.retries)
                .field("backoff_ms", options.backoff_ms)
                .field("heartbeat_timeout_ms", options.heartbeat_timeout_ms)
                .field("hedge_after_ms", options.hedge_after_ms)
                .field("hedge_multiplier", options.hedge_multiplier)
                .field("resume",
                       static_cast<std::size_t>(options.resume ? 1 : 0))
                .field("worker", options.worker_binary));
  if (options.timeout_ms <= 0.0 && options.heartbeat_timeout_ms <= 0.0) {
    log.write(
        Event("warn").field(
            "message",
            "no --timeout-ms and no --heartbeat-timeout-ms: a wedged worker "
            "will hang this run forever"));
  }

  // Crash-safety record. Fresh runs start a new manifest; --resume loads
  // the previous one, re-validates surviving canonical parts through the
  // exact merge-time checks, and only re-runs shards that fail them.
  // Attempt numbering continues from the dead run's `spawned` counters so
  // a resumed supervisor never shares part/log paths with an orphan.
  Manifest manifest;
  if (options.resume) {
    if (!fs::exists(manifest_path(work))) {
      throw std::invalid_argument(
          "orchestrate: --resume requires a manifest at " +
          manifest_path(work).string());
    }
    manifest = load_manifest(manifest_path(work).string());
    if (manifest.grid != options.grid || manifest.signature != signature ||
        manifest.workers != options.workers) {
      throw std::invalid_argument(
          "orchestrate: manifest at " + manifest_path(work).string() +
          " records a different run (grid \"" + manifest.grid +
          "\", workers " + std::to_string(manifest.workers) +
          ") — resume must keep grid, overrides, and workers identical");
    }
    for (std::size_t k = 0; k < shards.size(); ++k) {
      Shard& shard = shards[k];
      shard.next_attempt = manifest.shards[k].spawned;
      // The operator chose to resume: give re-run shards a fresh retry
      // budget (the manifest keeps the dead run's counters only until
      // this rewrite).
      manifest.shards[k].failures = 0;
      if (!load_part(part_path(work, k), options, grid, k, shard.part)) {
        shard.state = Shard::State::Done;
        shard.resumed = true;
        --open;
        manifest.shards[k].state = "done";
        log.write(Event("resume-skip")
                      .field("shard", k)
                      .field("attempts", shard.next_attempt));
        trace.instant("resume-skip shard " + std::to_string(k),
                      static_cast<long>(k));
      } else {
        manifest.shards[k].state = "open";
        shard.part.reset();
        fs::remove(part_path(work, k), ec);
      }
    }
  } else {
    manifest.grid = options.grid;
    manifest.signature = signature;
    manifest.workers = options.workers;
    manifest.shards.assign(options.workers, ShardManifest{});
    // Drop canonical parts from any unrelated previous use of this dir so
    // a crashed attempt cannot hand the validator someone else's output.
    for (std::size_t k = 0; k < shards.size(); ++k) {
      fs::remove(part_path(work, k), ec);
    }
  }
  save_manifest(manifest_path(work).string(), manifest);

  std::vector<double> completed_ms;  // winning-attempt durations (hedging)
  std::size_t done_in_this_process = 0;

  // Routes one whole wave's failure (every live attempt of the shard is
  // gone) into backoff-retry or permanent failure. `attempt_id` is the
  // last attempt that died; `reason` the human-readable cause.
  const auto handle_failure = [&](std::size_t k, std::size_t attempt_id,
                                  const std::string& reason) {
    Shard& shard = shards[k];
    shard.last_failure = reason + " (attempt " + std::to_string(attempt_id) +
                         ", log " + log_path(work, k, attempt_id).string() +
                         ")";
    shard.hedged = false;
    ++shard.failures;
    manifest.shards[k].failures = shard.failures;
    if (shard.failures >= max_attempts) {
      shard.state = Shard::State::Failed;
      --open;
      manifest.shards[k].state = "failed";
      save_manifest(manifest_path(work).string(), manifest);
      log.write(Event("shard-failed")
                    .field("shard", k)
                    .field("attempts", shard.next_attempt)
                    .field("reason", reason));
      return;
    }
    save_manifest(manifest_path(work).string(), manifest);
    const double backoff = retry_backoff_ms(options.backoff_ms, shard.failures);
    log.write(Event("retry")
                  .field("shard", k)
                  .field("attempt", attempt_id)
                  .field("reason", reason)
                  .field("backoff_ms", backoff));
    trace.instant("retry shard " + std::to_string(k), static_cast<long>(k),
                  "backoff_ms", backoff);
    shard.state = Shard::State::Pending;
    shard.not_before = Clock::now() + from_ms(backoff);
  };

  // Starts one attempt (primary or hedge) for shard k, including the
  // durable spawned-counter bump that keeps resume collision-free.
  const auto spawn_attempt = [&](std::size_t k, bool hedge) -> Attempt& {
    Shard& shard = shards[k];
    Attempt attempt;
    attempt.id = shard.next_attempt++;
    attempt.hedge = hedge;
    manifest.shards[k].spawned = shard.next_attempt;
    save_manifest(manifest_path(work).string(), manifest);
    fs::remove(attempt_part_path(work, k, attempt.id), ec);
    fs::remove(heartbeat_path(work, k, attempt.id), ec);
    fs::remove(attempt_metrics_path(work, k, attempt.id), ec);
    fs::remove(attempt_series_path(work, k, attempt.id), ec);
    fs::remove(attempt_trace_path(work, k, attempt.id), ec);
    attempt.pid = spawn_process(worker_spec(options, work, k, attempt.id));
    attempt.started = Clock::now();
    attempt.started_us = TraceCollector::now_us();
    attempt.has_deadline = options.timeout_ms > 0.0;
    if (attempt.has_deadline) {
      attempt.deadline = attempt.started + from_ms(options.timeout_ms);
    }
    shard.attempts.push_back(attempt);
    shard.state = Shard::State::Running;
    return shard.attempts.back();
  };

  // Marks shard k done with attempts[winner] as the winning attempt:
  // cross-check/kill the losers, promote the winner's part file to the
  // canonical name, persist, and maybe fire the SIGKILL test hook.
  const auto finish_shard = [&](std::size_t k, std::size_t winner) {
    Shard& shard = shards[k];
    emit_attempt_span(k, shard.attempts[winner], "win");
    const Attempt win = shard.attempts[winner];
    const bool raced = shard.attempts.size() > 1;
    for (std::size_t j = 0; j < shard.attempts.size(); ++j) {
      if (j == winner) continue;
      Attempt& loser = shard.attempts[j];
      // The scan loop may already have reaped this loser (failed exit,
      // timeout, or stale heartbeat in the same pass the winner landed);
      // only wait/kill a pid that is still unreaped.
      std::optional<ExitStatus> status = loser.reaped;
      if (!status) {
        status = try_wait(loser.pid);
        if (!status) status = kill_and_reap(loser.pid);
      }
      // The loser also finished cleanly. If it produced a part that was
      // not already rejected by validation, the determinism guarantee
      // says the bytes must match the winner's — cross-check and scream
      // if they do not.
      const fs::path lp = attempt_part_path(work, k, loser.id);
      if (status->success() && !loser.part_bad && fs::exists(lp)) {
        const std::string a =
            util::read_file(attempt_part_path(work, k, win.id).string());
        const std::string b = util::read_file(lp.string());
        if (a != b) {
          shard.hedge_mismatch = true;
          log.write(Event("hedge-mismatch")
                        .field("shard", k)
                        .field("attempt_a", win.id)
                        .field("attempt_b", loser.id));
        }
      }
      emit_attempt_span(k, loser, "lost-race");
      fs::remove(attempt_part_path(work, k, loser.id), ec);
      fs::remove(heartbeat_path(work, k, loser.id), ec);
      fs::remove(attempt_metrics_path(work, k, loser.id), ec);
      fs::remove(attempt_series_path(work, k, loser.id), ec);
      fs::remove(attempt_trace_path(work, k, loser.id), ec);
    }
    // Same-directory rename: atomic promotion of the attempt's (already
    // durably written) part to the canonical name resume looks for.
    fs::rename(attempt_part_path(work, k, win.id), part_path(work, k));
    // Sidecars follow the part: the winner's metrics/trace become the
    // shard's canonical ones. A missing sidecar is tolerated here (the
    // worker may have died between writing the part and the sidecar);
    // the merge below warns instead of failing.
    if (options.metrics) {
      fs::rename(attempt_metrics_path(work, k, win.id), metrics_path(work, k),
                 ec);
      if (options.metrics_interval_ms > 0.0) {
        fs::rename(attempt_series_path(work, k, win.id), series_path(work, k),
                   ec);
      }
    }
    if (trace.on) {
      fs::rename(attempt_trace_path(work, k, win.id),
                 trace_file_path(work, k), ec);
    }
    completed_ms.push_back(ms_since(win.started));
    shard.attempts.clear();
    shard.state = Shard::State::Done;
    --open;
    manifest.shards[k].state = "done";
    save_manifest(manifest_path(work).string(), manifest);
    if (raced) {
      log.write(Event("hedge-win")
                    .field("shard", k)
                    .field("attempt", win.id)
                    .field("winner", win.hedge ? "hedge" : "primary"));
    }
    log.write(Event("shard-done")
                  .field("shard", k)
                  .field("attempts", shard.next_attempt));
    ++done_in_this_process;
    if (options.kill_after_shards > 0 &&
        done_in_this_process == options.kill_after_shards) {
      // TEST HOOK: die the hard way, mid-run, exactly like a fatal crash
      // — no unwinding, no cleanup. The event lands first because the
      // log flushes per line.
      log.write(Event("test-kill").field("after_shards",
                                         done_in_this_process));
      ::raise(SIGKILL);
    }
  };

  while (open > 0) {
    const auto now = Clock::now();
    // Spawn every eligible pending shard (the shard count is the
    // concurrency cap by construction: one worker per shard).
    for (std::size_t k = 0; k < shards.size(); ++k) {
      Shard& shard = shards[k];
      if (shard.state != Shard::State::Pending || now < shard.not_before) {
        continue;
      }
      const Attempt& attempt = spawn_attempt(k, /*hedge=*/false);
      log.write(Event("spawn")
                    .field("shard", k)
                    .field("attempt", attempt.id)
                    .field("pid", static_cast<long>(attempt.pid)));
    }

    // Reap exits, enforce deadlines and heartbeat staleness per attempt.
    for (std::size_t k = 0; k < shards.size(); ++k) {
      Shard& shard = shards[k];
      if (shard.state != Shard::State::Running) continue;
      std::size_t winner = shard.attempts.size();  // sentinel: none
      std::vector<std::size_t> dead;
      std::string dead_reason;
      std::size_t dead_attempt_id = 0;
      for (std::size_t i = 0; i < shard.attempts.size(); ++i) {
        Attempt& attempt = shard.attempts[i];
        if (const auto status = try_wait(attempt.pid)) {
          attempt.reaped = *status;
          Event exit_event = Event("exit")
                                 .field("shard", k)
                                 .field("attempt", attempt.id)
                                 .field(status->signaled ? "signal" : "code",
                                        static_cast<long>(
                                            status->signaled ? status->signal
                                                             : status->code));
          if (attempt.hedge) exit_event.field("hedge", std::size_t{1});
          log.write(std::move(exit_event));
          if (status->success()) {
            const auto bad = load_part(attempt_part_path(work, k, attempt.id),
                                       options, grid, k, shard.part);
            if (!bad) {
              winner = i;
              break;  // first valid part wins; losers handled below
            }
            attempt.part_bad = true;
            log.write(
                Event("bad-part").field("shard", k).field("reason", *bad));
            emit_attempt_span(k, attempt, "bad-part");
            dead.push_back(i);
            dead_reason = *bad;
            dead_attempt_id = attempt.id;
          } else {
            emit_attempt_span(k, attempt, "failed");
            dead.push_back(i);
            dead_reason = status->signaled
                              ? "killed by signal " +
                                    std::to_string(status->signal)
                              : "exit code " + std::to_string(status->code);
            dead_attempt_id = attempt.id;
          }
        } else if (attempt.has_deadline && Clock::now() > attempt.deadline) {
          attempt.reaped = kill_and_reap(attempt.pid);
          log.write(Event("timeout")
                        .field("shard", k)
                        .field("attempt", attempt.id)
                        .field("timeout_ms", options.timeout_ms));
          emit_attempt_span(k, attempt, "timeout");
          dead.push_back(i);
          dead_reason =
              "timeout after " + std::to_string(options.timeout_ms) + " ms";
          dead_attempt_id = attempt.id;
        } else if (options.heartbeat_timeout_ms > 0.0) {
          const double age =
              heartbeat_age_ms(heartbeat_path(work, k, attempt.id), attempt);
          if (age > options.heartbeat_timeout_ms) {
            attempt.reaped = kill_and_reap(attempt.pid);
            log.write(Event("heartbeat-stale")
                          .field("shard", k)
                          .field("attempt", attempt.id)
                          .field("age_ms", age)
                          .field("timeout_ms", options.heartbeat_timeout_ms));
            emit_attempt_span(k, attempt, "stale");
            dead.push_back(i);
            dead_reason = "heartbeat stale for " + std::to_string(age) +
                          " ms (cap " +
                          std::to_string(options.heartbeat_timeout_ms) +
                          " ms)";
            dead_attempt_id = attempt.id;
          }
        }
      }
      if (winner < shard.attempts.size()) {
        finish_shard(k, winner);
        continue;
      }
      for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
        shard.attempts.erase(shard.attempts.begin() +
                             static_cast<std::ptrdiff_t>(*it));
      }
      if (!dead.empty() && shard.attempts.empty()) {
        // The whole wave is gone: this is what consumes retry budget. A
        // failed attempt whose hedge partner is still alive costs
        // nothing — the wave is still in flight.
        handle_failure(k, dead_attempt_id, dead_reason);
      }
    }

    // Hedging: one backup attempt per wave for a shard whose single
    // attempt has outlived the straggler threshold.
    if (options.hedge_after_ms > 0.0 || options.hedge_multiplier > 0.0) {
      double threshold = options.hedge_after_ms;
      if (threshold <= 0.0 && !completed_ms.empty()) {
        threshold = options.hedge_multiplier * median_of(completed_ms);
      }
      if (threshold > 0.0) {
        for (std::size_t k = 0; k < shards.size(); ++k) {
          Shard& shard = shards[k];
          if (shard.state != Shard::State::Running || shard.hedged ||
              shard.attempts.size() != 1) {
            continue;
          }
          const double age = ms_since(shard.attempts[0].started);
          if (age < threshold) continue;
          shard.hedged = true;
          const Attempt& hedge = spawn_attempt(k, /*hedge=*/true);
          log.write(Event("hedge-spawn")
                        .field("shard", k)
                        .field("attempt", hedge.id)
                        .field("pid", static_cast<long>(hedge.pid))
                        .field("age_ms", age)
                        .field("threshold_ms", threshold));
          trace.instant("hedge-spawn shard " + std::to_string(k),
                        static_cast<long>(k), "age_ms", age);
        }
      }
    }
    if (open > 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  Result result;
  result.shards.reserve(shards.size());
  bool all_ok = true;
  for (std::size_t k = 0; k < shards.size(); ++k) {
    ShardOutcome outcome;
    outcome.shard = k;
    outcome.ok = shards[k].state == Shard::State::Done;
    outcome.attempts = shards[k].next_attempt;
    outcome.failures = shards[k].failures;
    outcome.resumed = shards[k].resumed;
    outcome.hedge_mismatch = shards[k].hedge_mismatch;
    outcome.failure = outcome.ok ? "" : shards[k].last_failure;
    all_ok = all_ok && outcome.ok;
    if (outcome.hedge_mismatch) ++result.hedge_mismatches;
    result.shards.push_back(std::move(outcome));
  }

  if (all_ok) {
    const auto t_merge = Clock::now();
    std::vector<driver::BatchReport> parts;
    parts.reserve(shards.size());
    for (auto& shard : shards) parts.push_back(std::move(*shard.part));
    const auto merged = driver::merge_shards(parts);
    result.merged =
        driver::report_to_string(merged, /*include_timing=*/false);
    log.write(Event("merge")
                  .field("shards", shards.size())
                  .field("cells", merged.cells.size())
                  .field("wall_ms", ms_since(t_merge)));
    result.ok = true;
  }

  // Cross-process metrics roll-up: parse every shard's canonical sidecar
  // (the winner's, promoted in finish_shard; a resumed shard's survives
  // from the dead run) and emit one merged "metrics" event. A missing or
  // unparseable sidecar degrades to a warn — observability must never
  // fail a run that computed correctly.
  if (options.metrics) {
    std::vector<obs::Snapshot> snapshots;
    for (std::size_t k = 0; k < shards.size(); ++k) {
      const fs::path mp = metrics_path(work, k);
      if (!fs::exists(mp)) {
        log.write(Event("warn").field(
            "message", "missing metrics sidecar " + mp.string()));
        continue;
      }
      try {
        snapshots.push_back(obs::parse_snapshot(util::read_file(mp.string())));
      } catch (const std::exception& err) {
        log.write(Event("warn").field(
            "message",
            "unreadable metrics sidecar " + mp.string() + ": " + err.what()));
      }
    }
    const obs::Snapshot merged_metrics = obs::merge_snapshots(snapshots);
    Event metrics_event("metrics");
    metrics_event.field("shards_reporting", snapshots.size());
    for (const auto& [name, value] : merged_metrics.counters) {
      metrics_event.field(name, value);
    }
    for (const auto& [name, value] : merged_metrics.gauges) {
      metrics_event.field(name, static_cast<long>(value));
    }
    for (const auto& [name, hist] : merged_metrics.histograms) {
      metrics_event.field(name + ".count", hist.count);
      metrics_event.field(name + ".sum", hist.sum);
    }
    log.write(std::move(metrics_event));

    // Time-series roll-up: the winners' delta streams (one per shard,
    // each self-stamped with pid/seq/t_us) concatenate and sort onto one
    // wall-clock timeline — no resampling, no alignment guesswork. The
    // merged stream lands next to the manifest so a monitoring pipeline
    // can pick up one file per run. Same degradation contract as above.
    if (options.metrics_interval_ms > 0.0) {
      std::vector<obs::DeltaTick> merged_series;
      std::size_t series_reporting = 0;
      for (std::size_t k = 0; k < shards.size(); ++k) {
        const fs::path sp = series_path(work, k);
        if (!fs::exists(sp)) {
          log.write(Event("warn").field(
              "message", "missing metrics series sidecar " + sp.string()));
          continue;
        }
        try {
          const auto ticks =
              obs::parse_time_series(util::read_file(sp.string()));
          merged_series.insert(merged_series.end(), ticks.begin(),
                               ticks.end());
          ++series_reporting;
        } catch (const std::exception& err) {
          log.write(Event("warn").field(
              "message", "unreadable metrics series sidecar " + sp.string() +
                             ": " + err.what()));
        }
      }
      merged_series = obs::merge_time_series({std::move(merged_series)});
      const fs::path merged_path = work / "metrics.series.json";
      try {
        util::write_file_durable(merged_path.string(),
                                 obs::time_series_to_json(merged_series));
        log.write(Event("metrics-series")
                      .field("path", merged_path.string())
                      .field("shards_reporting", series_reporting)
                      .field("ticks", merged_series.size()));
      } catch (const std::exception& err) {
        log.write(Event("warn").field(
            "message",
            "metrics series write failed: " + std::string(err.what())));
      }
    }
  }

  // Stitch the merged timeline: supervisor lifecycle events plus every
  // shard's canonical worker trace, all on the shared wall-clock epoch.
  // Written on failed runs too — a trace is most useful as evidence.
  if (trace.on) {
    std::vector<std::string> stitched = trace.events;
    for (std::size_t k = 0; k < shards.size(); ++k) {
      const fs::path tp = trace_file_path(work, k);
      if (!fs::exists(tp)) continue;  // failed shard: worker never flushed
      try {
        const auto worker_events = obs::read_trace_events(tp.string());
        stitched.insert(stitched.end(), worker_events.begin(),
                        worker_events.end());
      } catch (const std::exception& err) {
        log.write(Event("warn").field(
            "message",
            "unreadable worker trace " + tp.string() + ": " + err.what()));
      }
    }
    try {
      obs::write_trace_file(options.trace, stitched);
      log.write(Event("trace")
                    .field("path", options.trace)
                    .field("events", stitched.size()));
    } catch (const std::exception& err) {
      log.write(Event("warn").field(
          "message", "trace write failed: " + std::string(err.what())));
    }
  }

  if (result.ok && !options.keep_parts) {
    for (std::size_t k = 0; k < shards.size(); ++k) {
      fs::remove(part_path(work, k), ec);
      fs::remove(metrics_path(work, k), ec);
      fs::remove(series_path(work, k), ec);
      fs::remove(trace_file_path(work, k), ec);
      for (std::size_t a = 0; a < shards[k].next_attempt; ++a) {
        fs::remove(attempt_part_path(work, k, a), ec);
        fs::remove(log_path(work, k, a), ec);
        fs::remove(heartbeat_path(work, k, a), ec);
        fs::remove(attempt_metrics_path(work, k, a), ec);
        fs::remove(attempt_series_path(work, k, a), ec);
        fs::remove(attempt_trace_path(work, k, a), ec);
      }
    }
  }
  // On failure, part files and worker logs are always kept as evidence;
  // the manifest is kept in both cases (it records the final states and
  // is what a later --resume reads).

  result.wall_ms = ms_since(t_start);
  log.write(Event(result.ok ? "done" : "failed")
                .field("wall_ms", result.wall_ms));
  return result;
}

}  // namespace manytiers::orchestrator
