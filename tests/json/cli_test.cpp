// Every CLI, and every bench that takes flags, reads numeric flags
// strictly: garbage, a stray sign or an out-of-range value is a usage
// error (exit 2) naming the flag, never a silently wrapped or truncated
// number. Also pins the SERVE_JSON ready line's string escaping, and
// that every flag the docs put on a command line is in that binary's
// --help. Binary paths and the source dir are injected at compile time.
#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "orchestrator/process.hpp"

namespace manytiers {
namespace {

std::string temp_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/mt_cli_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct Run {
  orchestrator::ExitStatus status;
  std::string output;  // stdout + stderr
};

Run run(const std::vector<std::string>& argv,
        const std::vector<std::string>& env = {}) {
  orchestrator::SpawnSpec spec;
  spec.argv = argv;
  spec.env_extra = env;
  spec.log_path = temp_path("log");
  const pid_t pid = orchestrator::spawn_process(spec);
  // A flag that slips through parsing starts real work (a daemon never
  // exits on its own), so a usage error must come back quickly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  Run result;
  for (;;) {
    if (const auto status = orchestrator::try_wait(pid)) {
      result.status = *status;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << argv[0] << " still running: flag was accepted";
      result.status = orchestrator::kill_and_reap(pid);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  result.output = slurp(spec.log_path);
  std::remove(spec.log_path.c_str());
  return result;
}

void expect_usage_error(const std::vector<std::string>& argv,
                        const std::string& flag,
                        const std::vector<std::string>& env = {}) {
  const Run result = run(argv, env);
  EXPECT_FALSE(result.status.signaled) << result.output;
  EXPECT_EQ(result.status.code, 2) << result.output;
  EXPECT_NE(result.output.find(flag + ":"), std::string::npos)
      << result.output;
}

TEST(CliNumbers, BatchRejectsNegativeThreads) {
  expect_usage_error({MANYTIERS_BATCH_BIN, "--grid", "smoke", "--threads",
                      "-1", "--out", temp_path("batch")},
                     "--threads");
}

TEST(CliNumbers, BatchRejectsAGarbageThreadCountInTheEnvironment) {
  // Checked with the grid flags batch, serve and orchestrate share,
  // before any work starts. -1 once read as 2^64 - 1 (one thread per
  // task), 4x as the hardware count; serve then failed its startup
  // build (exit 1), and orchestrate retried workers that exited 2.
  const std::string out = temp_path("threads");
  const std::vector<std::vector<std::string>> commands = {
      {MANYTIERS_BATCH_BIN, "--grid", "smoke", "--out", out},
      {MANYTIERS_SERVE_BIN, "--grid", "smoke", "--socket",
       temp_path("threads")},
      {MANYTIERS_ORCH_BIN, "--grid", "smoke", "--workers", "2", "--out", out,
       "--work-dir", out + ".parts"}};
  for (const auto& argv : commands) {
    for (const char* value : {"-1", "4x"}) {
      expect_usage_error(argv, "MANYTIERS_THREADS",
                         {std::string("MANYTIERS_THREADS=") + value});
    }
  }
}

TEST(CliNumbers, BatchRejectsAGarbageFaultAttempt) {
  expect_usage_error({MANYTIERS_BATCH_BIN, "--grid", "smoke", "--out",
                      temp_path("batch")},
                     "MANYTIERS_FAULT_ATTEMPT",
                     {"MANYTIERS_FAULT_ATTEMPT=1x"});
}

TEST(CliNumbers, OrchestrateRejectsNegativeRetries) {
  const std::string out = temp_path("orch");
  expect_usage_error({MANYTIERS_ORCH_BIN, "--grid", "smoke", "--workers", "1",
                      "--retries", "-1", "--out", out, "--work-dir",
                      out + ".parts"},
                     "--retries");
}

TEST(CliNumbers, OrchestrateRejectsAMalformedFaultPlan) {
  // Checked with the flags: no worker is spawned to fail on it.
  const std::string out = temp_path("orch");
  expect_usage_error({MANYTIERS_ORCH_BIN, "--grid", "smoke", "--workers", "2",
                      "--fault", "bogus", "--out", out, "--work-dir",
                      out + ".parts"},
                     "fault spec");
}

TEST(CliNumbers, ServeRejectsUnitSuffixedShedThreshold) {
  expect_usage_error({MANYTIERS_SERVE_BIN, "--socket", temp_path("shed"),
                      "--shed-p99-us", "5ms"},
                     "--shed-p99-us");
}

TEST(CliNumbers, ServeRejectsTcpPortAbove65535) {
  expect_usage_error({MANYTIERS_SERVE_BIN, "--socket", temp_path("tcp"),
                      "--tcp", "70000"},
                     "--tcp");
}

TEST(CliNumbers, QuoteRejectsNegativeSeed) {
  expect_usage_error({MANYTIERS_QUOTE_BIN, "--socket", temp_path("none"),
                      "reload", "--seed", "-1"},
                     "--seed");
}

TEST(CliNumbers, QuoteRejectsTrailingGarbage) {
  expect_usage_error({MANYTIERS_QUOTE_BIN, "--socket", temp_path("none"),
                      "price", "--market", "EU ISP/ced/linear", "--strategy",
                      "Optimal", "--q", "12abc", "--d", "800"},
                     "--q");
  expect_usage_error({MANYTIERS_QUOTE_BIN, "--socket", temp_path("none"),
                      "--retry-ms", "10x", "health"},
                     "--retry-ms");
}

TEST(CliNumbers, QuoteNamesTheFlagOfANonNumber) {
  expect_usage_error({MANYTIERS_QUOTE_BIN, "--socket", temp_path("none"),
                      "price", "--q", "abc"},
                     "--q");
}

TEST(CliNumbers, TopRejectsTrailingGarbage) {
  expect_usage_error({MANYTIERS_TOP_BIN, "--socket", temp_path("none"),
                      "--interval-ms", "5x"},
                     "--interval-ms");
}

// Duration and threshold flags take only finite values in their domain:
// *-ms flags [0, 2147483647], so no wait overflows a nanosecond clock.
TEST(CliNumbers, BatchRejectsOutOfDomainIntervals) {
  const std::string out = temp_path("batch");
  const std::vector<std::string> base = {MANYTIERS_BATCH_BIN, "--grid",
                                         "smoke", "--out", out};
  const auto with = [&](std::vector<std::string> extra) {
    extra.insert(extra.begin(), base.begin(), base.end());
    return extra;
  };
  expect_usage_error(with({"--heartbeat", temp_path("beat"),
                           "--heartbeat-interval-ms",
                           "18446744073709551615"}),
                     "--heartbeat-interval-ms");
  for (const char* bad : {"1e300", "inf", "-5", "nan"}) {
    expect_usage_error(with({"--metrics", temp_path("metrics"),
                             "--metrics-interval-ms", bad}),
                       "--metrics-interval-ms");
  }
}

TEST(CliNumbers, OrchestrateRejectsAnOverflowingHeartbeatTimeout) {
  const std::string out = temp_path("orch");
  expect_usage_error({MANYTIERS_ORCH_BIN, "--grid", "smoke", "--workers", "1",
                      "--heartbeat-timeout-ms", "1e18", "--out", out,
                      "--work-dir", out + ".parts"},
                     "--heartbeat-timeout-ms");
}

TEST(CliNumbers, ServeRejectsNegativeAndNaNThresholds) {
  for (const char* bad : {"-5", "nan"}) {
    expect_usage_error({MANYTIERS_SERVE_BIN, "--socket", temp_path("ms"),
                        "--metrics", temp_path("metrics"),
                        "--metrics-interval-ms", bad},
                       "--metrics-interval-ms");
  }
  for (const char* bad : {"-1", "nan"}) {
    expect_usage_error({MANYTIERS_SERVE_BIN, "--socket", temp_path("shed"),
                        "--shed-p99-us", bad},
                       "--shed-p99-us");
  }
}

TEST(CliNumbers, QuoteRejectsNegativeTimeoutsAndRetries) {
  expect_usage_error({MANYTIERS_QUOTE_BIN, "--socket", temp_path("none"),
                      "--timeout-ms", "-7", "health"},
                     "--timeout-ms");
  expect_usage_error({MANYTIERS_QUOTE_BIN, "--socket", temp_path("none"),
                      "--retry-ms", "-5", "health"},
                     "--retry-ms");
  expect_usage_error({MANYTIERS_QUOTE_BIN, "--socket", temp_path("none"),
                      "--overload-retries", "-3", "health"},
                     "--overload-retries");
}

TEST(CliNumbers, TopRejectsNegativeIterations) {
  expect_usage_error({MANYTIERS_TOP_BIN, "--socket", temp_path("none"),
                      "--iterations", "-1"},
                     "--iterations");
}

// The benches that take flags parse them with the CLIs' flag layer. Every
// case exits before any load or fill starts.
TEST(BenchFlags, HelpExitsZero) {
  for (const char* bin : {MANYTIERS_SERVE_LOAD_BIN, MANYTIERS_DP_SCALING_BIN,
                          MANYTIERS_NETDYN_BIN}) {
    const auto result = run({bin, "--help"});
    EXPECT_FALSE(result.status.signaled) << bin << ": " << result.output;
    EXPECT_EQ(result.status.code, 0) << bin << ": " << result.output;
    EXPECT_NE(result.output.find("usage: "), std::string::npos) << bin;
  }
}

TEST(BenchFlags, ServeLoadRejectsBadValues) {
  // 1000x once ran at 1000 req/s, and -5 switched the deadline off.
  expect_usage_error({MANYTIERS_SERVE_LOAD_BIN, "--overload",
                      "--overload-rate", "1000x"},
                     "--overload-rate");
  expect_usage_error({MANYTIERS_SERVE_LOAD_BIN, "--overload",
                      "--connections", "0"},
                     "--connections");
  expect_usage_error({MANYTIERS_SERVE_LOAD_BIN, "--overload",
                      "--overload-deadline-ms", "-5"},
                     "--overload-deadline-ms");
}

TEST(BenchFlags, BareServeLoadNamesTheOverloadRegime) {
  expect_usage_error({MANYTIERS_SERVE_LOAD_BIN}, "--overload");
}

TEST(BenchFlags, KernelBenchesRejectAnUnknownKernel) {
  for (const char* bin : {MANYTIERS_DP_SCALING_BIN, MANYTIERS_NETDYN_BIN}) {
    expect_usage_error({bin, "--kernel", "bogus"}, "--kernel");
  }
}

// The docs drift check: join the `\` continuations of every fenced block
// in README.md and EXPERIMENTS.md, and check that each --flag on a
// `./build/src/manytiers_<bin> ...` or `./build/bench/bench_<name> ...`
// command line is in that binary's --help.
TEST(CliDocs, EveryDocumentedFlagIsInHelp) {
  const std::map<std::string, std::string> bins = {
      {"manytiers_batch", MANYTIERS_BATCH_BIN},
      {"manytiers_orchestrate", MANYTIERS_ORCH_BIN},
      {"manytiers_serve", MANYTIERS_SERVE_BIN},
      {"manytiers_quote", MANYTIERS_QUOTE_BIN},
      {"manytiers_top", MANYTIERS_TOP_BIN},
      {"bench_serve_load", MANYTIERS_SERVE_LOAD_BIN},
      {"bench_dp_scaling", MANYTIERS_DP_SCALING_BIN},
      {"bench_netdyn", MANYTIERS_NETDYN_BIN}};
  std::map<std::string, std::string> help;
  for (const auto& [name, path] : bins) {
    const auto result = run({path, "--help"});
    ASSERT_EQ(result.status.code, 0) << name << ": " << result.output;
    help[name] = result.output;
  }

  const std::regex command(R"(\./build/(src|bench)/([a-z0-9_]+)(.*))");
  const std::regex flag(R"(^--[a-z0-9-]+$)");
  std::size_t checked = 0;
  for (const char* doc : {"README.md", "EXPERIMENTS.md"}) {
    std::istringstream in(slurp(std::string(MANYTIERS_SOURCE_DIR) + "/" + doc));
    bool fenced = false;
    std::string line, joined;
    while (std::getline(in, line)) {
      if (line.rfind("```", 0) == 0) {
        fenced = !fenced;
        continue;
      }
      if (!fenced) continue;
      if (!line.empty() && line.back() == '\\') {
        joined += line.substr(0, line.size() - 1);
        continue;
      }
      joined += line;
      std::smatch match;
      if (std::regex_search(joined, match, command)) {
        const std::string bin = match[2];
        // Every CLI is in the table. A bench missing from it takes no
        // flags, so a flag documented on it fails the check below.
        ASSERT_TRUE(match[1] == "bench" || bins.count(bin)) << doc << ": "
                                                            << joined;
        std::istringstream words(match[3].str());
        std::string word;
        while (words >> word && word != "#" && word != "|" && word != "&" &&
               word != "&&" && word != ";") {
          if (!std::regex_match(word, flag)) continue;
          EXPECT_NE(help[bin].find("  " + word + " "), std::string::npos)
              << doc << ": " << bin << " " << word
              << " is not in its --help";
          ++checked;
        }
      }
      joined.clear();
    }
  }
  EXPECT_GT(checked, 50u);
}

// The ready line is strict JSON even when the socket path needs escaping.
TEST(ServeJson, ReadyLineEscapesTheSocketPath) {
  const std::string socket_path = temp_path("q\"b\\s") + ".sock";
  orchestrator::SpawnSpec spec;
  spec.argv = {MANYTIERS_SERVE_BIN, "--grid", "smoke", "--socket",
               socket_path};
  spec.log_path = temp_path("ready") + ".log";
  const pid_t pid = orchestrator::spawn_process(spec);

  std::string escaped;
  for (const char c : socket_path) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  const std::string expected =
      "SERVE_JSON {\"event\":\"ready\",\"grid\":\"smoke\",\"socket\":\"" +
      escaped + "\",";
  std::string log;
  std::optional<orchestrator::ExitStatus> status;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (log.find("\"event\":\"ready\"") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline &&
         !(status = orchestrator::try_wait(pid))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log = slurp(spec.log_path);
  }
  EXPECT_NE(log.find(expected), std::string::npos) << log;
  if (!status) {
    ::kill(pid, SIGTERM);
    const auto stop_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!(status = orchestrator::try_wait(pid)) &&
           std::chrono::steady_clock::now() < stop_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!status) status = orchestrator::kill_and_reap(pid);
  }
  EXPECT_TRUE(status->success()) << slurp(spec.log_path);
  std::remove(spec.log_path.c_str());
  std::remove(socket_path.c_str());
}

}  // namespace
}  // namespace manytiers
