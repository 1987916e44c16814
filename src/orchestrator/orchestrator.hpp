// Crash-safe, straggler-proof multi-process shard orchestrator.
//
// Takes a named ExperimentGrid and a worker count K, splits the grid
// into K shards (the driver's round-robin task split), spawns one
// `manytiers_batch` worker process per shard, and supervises them to a
// merged report that is byte-identical to the unsharded single-process
// run. Three robustness layers on top of plain parallelism:
//
// Fault tolerance (workers may die):
//   * per-attempt wall-clock timeouts (SIGKILL + retry);
//   * bounded retry with exponential backoff on nonzero exit, crash
//     signal, or corrupt/truncated part files;
//   * part-file integrity via the BATCH_JSON parser + validate_part
//     (signature, shard coordinates, exact per-cell point ownership);
//   * graceful degradation — a shard that exhausts its retry budget
//     fails the whole run with a per-shard summary; no partial report
//     is ever emitted.
//
// Crash safety (the orchestrator itself may die):
//   * a durable manifest (manifest.hpp) in the work dir records the run
//     identity and per-shard progress, written via fsync+rename at
//     every milestone; worker part files land the same way;
//   * `resume = true` re-validates surviving parts with validate_part
//     and re-runs only missing/invalid shards — a SIGKILLed run resumed
//     mid-flight merges byte-identically to the uninterrupted one.
//
// Straggler proofing (workers may be slow without being dead):
//   * heartbeat liveness — workers touch a per-attempt heartbeat file;
//     with `heartbeat_timeout_ms` set, the supervisor kills on beat
//     staleness instead of waiting out the wall-clock cap, so hung
//     shards die fast and slow-but-alive shards are left to finish;
//   * hedged retries — after `hedge_after_ms` (or `hedge_multiplier` x
//     the median completed-attempt time) a backup attempt is spawned in
//     its own attempt paths; the first valid part wins, the loser is
//     killed, and a hedge does NOT consume the retry budget. When both
//     attempts happen to finish, their parts are cross-checked for
//     byte-equality (determinism guard); a mismatch is logged AND
//     surfaced through Result::hedge_mismatches so it cannot pass
//     silently.
//
// Every decision is logged through the structured EventLog (see
// events.hpp); workers inherit a deterministic fault-injection plan
// (MANYTIERS_FAULT) plus the supervisor's per-attempt counter
// (MANYTIERS_FAULT_ATTEMPT), which is what makes the crash/timeout/
// straggle/corrupt/resume paths hermetically testable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/grid.hpp"
#include "orchestrator/events.hpp"

namespace manytiers::orchestrator {

// The grid choice (name and overrides) is forwarded to workers and
// applied to the merge-time signature check.
struct Options : driver::GridChoice {
  std::size_t workers = 4;       // K: shard count == max concurrent shards
  std::string worker_binary;     // path to the manytiers_batch executable
  std::string work_dir;          // manifest + parts + logs + heartbeats
  double timeout_ms = 0.0;       // per-attempt wall clock; 0 = no timeout
  std::size_t retries = 2;       // extra attempts per shard after the first
  double backoff_ms = 250.0;     // base retry delay; doubles per attempt
  bool keep_parts = false;       // keep part files + logs after success
  std::size_t worker_threads = 0;  // --threads forwarded to workers
  bool per_point = false;        // --per-point forwarded to workers
  std::string fault;             // MANYTIERS_FAULT plan for workers (tests)

  // Observability. `trace` writes one merged Chrome-trace-event JSON
  // timeline: every worker runs with --trace into a per-attempt file
  // (partK.aN.trace.json), winners' files are stitched together with the
  // supervisor's own lifecycle spans (pid-tagged "X" events per attempt,
  // instants for retries/hedges/resume-skips) onto one shared wall-clock
  // timeline. `metrics` runs workers with --metrics into per-attempt
  // sidecars (partK.aN.metrics.json); the winners' sidecars are merged
  // and emitted as one "metrics" ORCH_JSON event after the report merge.
  // Neither changes the merged report bytes.
  std::string trace;
  bool metrics = false;

  // Streaming extensions (needs `metrics` / `trace`): with
  // `metrics_interval_ms` > 0 every worker also streams timestamped
  // delta snapshots into a per-attempt .series.json sidecar; winners'
  // series are promoted like parts, merged onto one wall-clock timeline
  // (obs::merge_time_series), and written to work_dir/metrics.series.json.
  // `trace_sample` forwards --trace-sample N to workers: per-task spans
  // are kept 1-in-N by a deterministic hash of the global task index, so
  // every shard keeps the SAME task subset (lifecycle spans are always
  // kept).
  double metrics_interval_ms = 0.0;
  std::uint64_t trace_sample = 0;

  // Crash safety: resume a previous run from its manifest instead of
  // starting fresh. Valid parts are kept (resume-skip), everything else
  // re-runs; the manifest must match grid/signature/workers exactly.
  bool resume = false;

  // Liveness: kill an attempt whose heartbeat file is older than this
  // (0 = heartbeats disabled). The worker beats every
  // max(10, heartbeat_timeout_ms / 4) ms.
  double heartbeat_timeout_ms = 0.0;

  // Hedging: spawn one backup attempt for a shard whose current attempt
  // has been running longer than hedge_after_ms (takes precedence), or
  // hedge_multiplier x the median duration of completed attempts (only
  // once at least one attempt has completed). 0/0 disables hedging.
  double hedge_after_ms = 0.0;
  double hedge_multiplier = 0.0;

  // TEST HOOK: SIGKILL this process (no cleanup, no unwind) right after
  // the Nth shard completes — the hermetic way to exercise resume.
  std::size_t kill_after_shards = 0;
};

struct ShardOutcome {
  std::size_t shard = 0;
  std::size_t attempts = 0;  // attempts actually spawned (hedges included)
  std::size_t failures = 0;  // retry budget consumed (hedges excluded)
  bool resumed = false;      // satisfied by a surviving part on resume
  bool hedge_mismatch = false;  // two clean attempts, byte-different parts
  bool ok = false;
  std::string failure;  // last failure description when !ok
};

struct Result {
  bool ok = false;
  std::vector<ShardOutcome> shards;
  std::string merged;   // serialized merged report (no timing) when ok
  double wall_ms = 0.0;

  // Shards where a hedge race ended with two successful attempts whose
  // parts differ byte-for-byte. That is a worker-determinism violation:
  // the merged report (built from the winning parts, which did validate)
  // is still emitted, but the byte-identical-merge guarantee is
  // unverifiable, so callers should treat the run as suspect. The CLI
  // exits nonzero when this is > 0.
  std::size_t hedge_mismatches = 0;
};

// The retry delay after a shard's `failures`-th failure (failures >= 1):
// base_ms * 2^(failures - 1), capped at cli::kMaxMillis (2147483647 ms,
// the ceiling of every *-ms flag), so no retry budget can overflow the
// doubling or the clock conversion.
double retry_backoff_ms(double base_ms, std::size_t failures);

// Run the whole orchestration: plan (or resume), spawn, supervise,
// validate, merge. Throws std::invalid_argument on malformed options
// (unknown grid, workers == 0, missing worker binary / work dir, resume
// without a matching manifest). Worker failures do NOT throw — they are
// supervised into Result.ok == false.
Result orchestrate(const Options& options, EventLog& log);

}  // namespace manytiers::orchestrator
