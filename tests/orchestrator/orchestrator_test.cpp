// End-to-end supervision tests against the real manytiers_batch binary
// (path injected as MANYTIERS_BATCH_BIN by CMake). Faults are injected
// deterministically through MANYTIERS_FAULT, so every recovery path —
// crash, stall + heartbeat/timeout, slow + hedge, corrupt/partial part,
// SIGKILLed supervisor + resume — is exercised hermetically. The resume
// E2E additionally spawns the real manytiers_orchestrate CLI
// (MANYTIERS_ORCH_BIN) so the SIGKILL lands on a separate process, not
// on this test binary.
#include "orchestrator/orchestrator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "driver/grid.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "obs/trace.hpp"
#include "event_parser.hpp"
#include "orchestrator/process.hpp"
#include "util/file.hpp"

namespace manytiers::orchestrator {
namespace {

namespace fs = std::filesystem;

std::string unsharded_report(const driver::ExperimentGrid& grid) {
  return driver::report_to_string(driver::run_grid(grid),
                                  /*include_timing=*/false);
}

// Fresh per-test options: fast backoff, quiet log, scratch work dir.
struct Fixture {
  Options options;
  std::ostringstream events;
  EventLog log{events};

  explicit Fixture(const char* name) {
    options.worker_binary = MANYTIERS_BATCH_BIN;
    options.work_dir = ::testing::TempDir() + "orch_" + name;
    options.backoff_ms = 1.0;
    fs::remove_all(options.work_dir);
  }
  ~Fixture() { fs::remove_all(options.work_dir); }

  Result run() { return orchestrate(options, log); }
};

TEST(Orchestrator, CleanRunMatchesUnshardedReport) {
  Fixture fx("clean");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  ASSERT_EQ(result.shards.size(), 2u);
  for (const auto& shard : result.shards) {
    EXPECT_TRUE(shard.ok);
    EXPECT_EQ(shard.attempts, 1u);
  }
  // Parts and logs are cleaned up on success unless keep_parts.
  EXPECT_FALSE(fs::exists(fs::path(fx.options.work_dir) / "part0.batch"));
}

TEST(Orchestrator, SingleWorkerDegeneratesToUnshardedRun) {
  Fixture fx("single");
  fx.options.grid = "smoke";
  fx.options.workers = 1;
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
}

TEST(Orchestrator, CrashedWorkerIsRetriedAndReportStaysIdentical) {
  // ISSUE acceptance: a K-worker default-grid run with one injected
  // crash must still be byte-identical to the single-process run.
  Fixture fx("crash");
  fx.options.grid = "default";
  fx.options.workers = 3;
  fx.options.fault = "crash:1";  // shard 1 crashes once, then recovers
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::default_grid()));
  EXPECT_EQ(result.shards[0].attempts, 1u);
  EXPECT_EQ(result.shards[1].attempts, 2u);
  EXPECT_EQ(result.shards[2].attempts, 1u);
  const auto events = fx.events.str();
  EXPECT_NE(events.find("\"type\":\"retry\",\"shard\":1"), std::string::npos);
  EXPECT_NE(events.find("\"type\":\"done\""), std::string::npos);
}

TEST(Orchestrator, PersistentCrashExhaustsRetriesAndFailsTheRun) {
  Fixture fx("exhaust");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.retries = 1;
  fx.options.fault = "crash:0:99";  // shard 0 crashes on every attempt
  const auto result = fx.run();
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.merged.empty());  // never a partial report
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_FALSE(result.shards[0].ok);
  EXPECT_EQ(result.shards[0].attempts, 2u);  // 1 try + 1 retry
  EXPECT_NE(result.shards[0].failure.find("exit code"), std::string::npos);
  EXPECT_TRUE(result.shards[1].ok);  // the healthy shard still completes
  EXPECT_NE(fx.events.str().find("\"type\":\"shard-failed\",\"shard\":0"),
            std::string::npos);
  // Evidence (logs, any parts) is kept on failure for post-mortems.
  EXPECT_TRUE(fs::exists(fs::path(fx.options.work_dir) / "worker0.a0.log"));
}

TEST(Orchestrator, UsageErrorFromAWorkerIsNotRetried) {
  // Every worker rejects the malformed plan with exit 2, a usage error
  // no retry can fix: each shard fails on its first attempt.
  Fixture fx("usage");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.retries = 2;
  fx.options.fault = "bogus";
  const auto result = fx.run();
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.merged.empty());
  ASSERT_EQ(result.shards.size(), 2u);
  for (const auto& shard : result.shards) {
    EXPECT_FALSE(shard.ok);
    EXPECT_EQ(shard.attempts, 1u);
    EXPECT_NE(shard.failure.find("usage error (exit 2)"), std::string::npos)
        << shard.failure;
  }
  const auto events = fx.events.str();
  EXPECT_EQ(events.find("\"type\":\"retry\""), std::string::npos) << events;
  // The shard-failed reason names the attempt's log.
  const auto failed = events.find("\"type\":\"shard-failed\",\"shard\":0");
  ASSERT_NE(failed, std::string::npos) << events;
  EXPECT_NE(events.find("worker0.a0.log", failed), std::string::npos)
      << events;
}

TEST(Orchestrator, StalledWorkerIsKilledOnTimeoutAndRetried) {
  Fixture fx("stall");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.timeout_ms = 750.0;
  fx.options.fault = "stall:1";  // shard 1 hangs on its first attempt
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  EXPECT_EQ(result.shards[1].attempts, 2u);
  EXPECT_NE(fx.events.str().find("\"type\":\"timeout\",\"shard\":1"),
            std::string::npos);
}

TEST(Orchestrator, CorruptPartIsRejectedAndRetried) {
  Fixture fx("corrupt");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.fault = "corrupt:0";  // shard 0 writes a torn part once
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  EXPECT_EQ(result.shards[0].attempts, 2u);
  EXPECT_NE(fx.events.str().find("\"type\":\"bad-part\",\"shard\":0"),
            std::string::npos);
}

TEST(Orchestrator, GridOverridesReachWorkersAndTheMerge) {
  Fixture fx("override");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.n_flows = 30;
  fx.options.max_bundles = 3;
  fx.options.seed = 7;
  fx.options.seed_given = true;
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  auto grid = driver::smoke_grid();
  grid.base.n_flows = 30;
  grid.max_bundles = 3;
  grid.base.seed = 7;
  EXPECT_EQ(result.merged, unsharded_report(grid));
}

TEST(Orchestrator, KeepPartsPreservesPartFilesOnSuccess) {
  Fixture fx("keep");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.keep_parts = true;
  ASSERT_TRUE(fx.run().ok);
  EXPECT_TRUE(fs::exists(fs::path(fx.options.work_dir) / "part0.batch"));
  EXPECT_TRUE(fs::exists(fs::path(fx.options.work_dir) / "part1.batch"));
}

TEST(Orchestrator, HeartbeatStalenessKillsWedgedWorkerWithoutWallClockCap) {
  // A wedged worker never beats; with no --timeout-ms at all, the
  // heartbeat staleness check is what must fire.
  Fixture fx("heartbeat");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.timeout_ms = 0.0;
  fx.options.heartbeat_timeout_ms = 400.0;
  fx.options.fault = "stall:1";
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  EXPECT_EQ(result.shards[1].attempts, 2u);
  const auto events = fx.events.str();
  EXPECT_NE(events.find("\"type\":\"heartbeat-stale\",\"shard\":1"),
            std::string::npos);
  // Liveness is configured, so the no-liveness footgun warning must not
  // appear.
  EXPECT_EQ(events.find("\"type\":\"warn\""), std::string::npos);
}

TEST(Orchestrator, NoLivenessConfiguredLogsFootgunWarning) {
  Fixture fx("warn");
  fx.options.grid = "smoke";
  fx.options.workers = 1;
  fx.options.timeout_ms = 0.0;
  fx.options.heartbeat_timeout_ms = 0.0;
  ASSERT_TRUE(fx.run().ok);
  EXPECT_NE(fx.events.str().find("\"type\":\"warn\""), std::string::npos);
}

TEST(Orchestrator, SlowStragglerIsHedgedWithoutConsumingRetries) {
  // Shard 1's first attempt straggles for 8 s (alive, just slow). With
  // retries = 0 the only way this run can succeed quickly is the hedge:
  // a backup attempt that costs no retry budget and wins.
  Fixture fx("hedge");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.retries = 0;
  fx.options.hedge_after_ms = 200.0;
  fx.options.fault = "slow:1:8000";
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = fx.run();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  EXPECT_EQ(result.shards[1].attempts, 2u);   // primary + hedge
  EXPECT_EQ(result.shards[1].failures, 0u);   // hedge consumed no retry
  EXPECT_LT(wall_ms, 8000.0);                 // did not wait out the sleep
  const auto events = fx.events.str();
  EXPECT_NE(events.find("\"type\":\"hedge-spawn\",\"shard\":1"),
            std::string::npos);
  EXPECT_NE(events.find("\"type\":\"hedge-win\",\"shard\":1"),
            std::string::npos);
}

TEST(Orchestrator, HedgedRunProducesMergedTraceAndMetrics) {
  // ISSUE acceptance: the merged trace of a hedged run must load as
  // valid Chrome trace JSON and carry a pid-tagged spawn->done "X" span
  // for every shard attempt, including the hedge wave — and turning
  // tracing + metrics on must not change the merged report bytes.
  Fixture fx("hedge_trace");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.retries = 0;
  fx.options.hedge_after_ms = 200.0;
  fx.options.fault = "slow:1:8000";
  fx.options.trace = ::testing::TempDir() + "orch_hedge.trace.json";
  fx.options.metrics = true;
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  EXPECT_EQ(result.shards[1].attempts, 2u);  // primary + hedge

  // The merged trace parses as a line-formatted JSON array; collect its
  // supervisor lifecycle spans ("X" events, named "shard K attempt N").
  const auto events = obs::read_trace_events(fx.options.trace);
  ASSERT_FALSE(events.empty());
  std::size_t shard0_spans = 0, shard1_spans = 0, hedge_spans = 0;
  std::set<std::string> pids;
  for (const auto& event : events) {
    const auto pid_at = event.find("\"pid\":");
    ASSERT_NE(pid_at, std::string::npos) << event;
    pids.insert(event.substr(pid_at + 6, event.find_first_of(",}", pid_at) -
                                             pid_at - 6));
    if (event.find("\"ph\":\"X\"") == std::string::npos) continue;
    ASSERT_NE(event.find("\"dur\":"), std::string::npos) << event;
    if (event.find("\"name\":\"shard 0 attempt") != std::string::npos) {
      ++shard0_spans;
    }
    if (event.find("\"name\":\"shard 1 attempt") != std::string::npos) {
      ++shard1_spans;
    }
    if (event.find("(hedge)") != std::string::npos) ++hedge_spans;
  }
  EXPECT_EQ(shard0_spans, 1u);
  EXPECT_EQ(shard1_spans, 2u);  // straggling primary + winning hedge
  EXPECT_EQ(hedge_spans, 1u);
  // Pid-tagged across processes: the supervisor plus >= 2 worker pids
  // (the slow loser may be killed before it flushes a trace).
  EXPECT_GE(pids.size(), 3u);

  // The event log carries the merged-metrics roll-up, and the whole log
  // parses under the versioned test-side reader.
  const auto parsed = test::parse_event_log(fx.events.str());
  ASSERT_FALSE(parsed.empty());
  EXPECT_EQ(parsed.front().type, "plan");
  EXPECT_EQ(parsed.front().at("v"), "1");
  bool saw_metrics = false, saw_trace = false;
  for (const auto& event : parsed) {
    if (event.type == "metrics") {
      saw_metrics = true;
      EXPECT_EQ(event.at("shards_reporting"), "2");
      EXPECT_TRUE(event.has("driver.tasks"));
    }
    if (event.type == "trace") saw_trace = true;
  }
  EXPECT_TRUE(saw_metrics);
  EXPECT_TRUE(saw_trace);
  std::filesystem::remove(fx.options.trace);
}

TEST(Orchestrator, PartialWriteThenDeathIsRetried) {
  // The partial fault leaves a torn prefix at the part path and dies
  // mid-write; the retry must overwrite it with a valid part.
  Fixture fx("partial");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.fault = "partial:0";
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  EXPECT_EQ(result.shards[0].attempts, 2u);
  EXPECT_NE(fx.events.str().find("\"type\":\"retry\",\"shard\":0"),
            std::string::npos);
}

TEST(Orchestrator, ResumeSkipsShardsWithValidParts) {
  Fixture fx("resume_skip");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.keep_parts = true;  // leave canonical parts for the resume
  const auto first = fx.run();
  ASSERT_TRUE(first.ok);

  fx.options.resume = true;
  const auto second = fx.run();
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.merged, first.merged);
  for (const auto& shard : second.shards) {
    EXPECT_TRUE(shard.resumed) << "shard " << shard.shard;
  }
  EXPECT_NE(fx.events.str().find("\"type\":\"resume-skip\",\"shard\":0"),
            std::string::npos);
}

TEST(Orchestrator, ResumeRerunsShardWithTornPart) {
  Fixture fx("resume_torn");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.keep_parts = true;
  ASSERT_TRUE(fx.run().ok);

  // Tear canonical part 0 the way a mid-write death would (the durable
  // path prevents this for workers, but resume must not trust any file
  // it did not just validate).
  const auto part0 = (fs::path(fx.options.work_dir) / "part0.batch").string();
  const std::string text = util::read_file(part0);
  {
    std::ofstream out(part0, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() / 4);
  }
  fx.options.resume = true;
  const auto result = fx.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  EXPECT_FALSE(result.shards[0].resumed);  // torn part re-ran
  EXPECT_TRUE(result.shards[1].resumed);
  const auto events = fx.events.str();
  EXPECT_NE(events.find("\"type\":\"resume-skip\",\"shard\":1"),
            std::string::npos);
}

TEST(Orchestrator, ResumeRejectsMissingOrMismatchedManifest) {
  Fixture fx("resume_bad");
  fx.options.grid = "smoke";
  fx.options.workers = 2;
  fx.options.resume = true;
  // No manifest in a fresh work dir.
  EXPECT_THROW(fx.run(), std::invalid_argument);

  fx.options.resume = false;
  fx.options.keep_parts = true;
  ASSERT_TRUE(fx.run().ok);
  // Changing the worker count changes shard ownership: resume must
  // refuse rather than merge mismatched parts.
  fx.options.resume = true;
  fx.options.workers = 3;
  EXPECT_THROW(fx.run(), std::invalid_argument);
  // Same for a grid-signature change (different seed).
  fx.options.workers = 2;
  fx.options.seed = 123456;
  fx.options.seed_given = true;
  EXPECT_THROW(fx.run(), std::invalid_argument);
}

TEST(Orchestrator, KilledOrchestratorResumesToIdenticalBytes) {
  // ISSUE acceptance: SIGKILL the real orchestrator CLI mid-run (via the
  // --kill-after-shards test hook), then resume; the merged report must
  // be byte-identical to the uninterrupted unsharded run.
  const std::string work_dir = ::testing::TempDir() + "orch_e2e_resume";
  fs::remove_all(work_dir);
  const std::string out = work_dir + ".batch";
  fs::remove(out);

  SpawnSpec spec;
  spec.argv = {MANYTIERS_ORCH_BIN,
               "--grid",       "smoke",
               "--workers",    "3",
               "--timeout-ms", "60000",
               "--kill-after-shards", "1",
               "--work-dir",   work_dir,
               "--out",        out};
  spec.log_path = work_dir + ".kill.log";
  const pid_t pid = spawn_process(spec);
  std::optional<ExitStatus> status;
  while (!(status = try_wait(pid))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(status->signaled);
  EXPECT_EQ(status->signal, SIGKILL);
  EXPECT_FALSE(fs::exists(out));  // died before any report was written
  ASSERT_TRUE(fs::exists(fs::path(work_dir) / "manifest.orch"));

  Options options;
  options.grid = "smoke";
  options.workers = 3;
  options.worker_binary = MANYTIERS_BATCH_BIN;
  options.work_dir = work_dir;
  options.timeout_ms = 60000.0;
  options.resume = true;
  std::ostringstream events;
  EventLog log{events};
  const auto result = orchestrate(options, log);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.merged, unsharded_report(driver::smoke_grid()));
  // Exactly one shard finished before the SIGKILL (the hook fires inside
  // that shard's completion), so exactly one resume-skip.
  std::size_t resumed = 0;
  for (const auto& shard : result.shards) resumed += shard.resumed ? 1 : 0;
  EXPECT_EQ(resumed, 1u);
  EXPECT_NE(events.str().find("\"type\":\"resume-skip\""), std::string::npos);
  fs::remove_all(work_dir);
  fs::remove(work_dir + ".kill.log");
}

TEST(RetryBackoff, DoublesPerFailureUpToTheMillisCeiling) {
  EXPECT_EQ(retry_backoff_ms(250.0, 1), 250.0);
  EXPECT_EQ(retry_backoff_ms(250.0, 2), 500.0);
  EXPECT_EQ(retry_backoff_ms(250.0, 4), 2000.0);
  // 250 * 2^39 ms is past the cap every *-ms value has.
  EXPECT_EQ(retry_backoff_ms(250.0, 40), 2147483647.0);
  EXPECT_EQ(retry_backoff_ms(250.0, 1000), 2147483647.0);
  // Past 64 failures the old 1ull << (failures - 1) shifted out of range.
  EXPECT_EQ(retry_backoff_ms(0.0, 65), 0.0);
  EXPECT_EQ(retry_backoff_ms(0.0, 1000), 0.0);
}

TEST(Orchestrator, SeventyRetriesOfACrashingShardStayDefined) {
  // 71 attempts of a shard that crashes every time, with no backoff: the
  // 65th failure used to shift a 64-bit one by 64 (undefined behaviour,
  // which the UBSan leg turns into a failure). The run must just fail.
  Fixture fx("many_retries");
  fx.options.grid = "smoke";
  fx.options.workers = 1;
  fx.options.retries = 70;
  fx.options.backoff_ms = 0.0;
  fx.options.fault = "crash:0:1000";
  const auto result = fx.run();
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_EQ(result.shards[0].attempts, 71u);
}

TEST(Orchestrator, MalformedOptionsThrowUsageErrors) {
  Fixture fx("usage");
  fx.options.workers = 0;
  EXPECT_THROW(fx.run(), std::invalid_argument);
  fx.options.workers = 2;
  fx.options.grid = "no-such-grid";
  EXPECT_THROW(fx.run(), std::invalid_argument);
  fx.options.grid = "smoke";
  fx.options.worker_binary = "/nonexistent/manytiers_batch";
  EXPECT_THROW(fx.run(), std::invalid_argument);
}

}  // namespace
}  // namespace manytiers::orchestrator
