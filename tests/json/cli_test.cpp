// Every CLI reads numeric flags strictly: garbage, a stray sign or an
// out-of-range value is a usage error (exit 2) naming the flag, never a
// silently wrapped or truncated number. Also pins the SERVE_JSON ready
// line's string escaping. Binary paths are injected at compile time.
#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
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

Run run(const std::vector<std::string>& argv) {
  orchestrator::SpawnSpec spec;
  spec.argv = argv;
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
                        const std::string& flag) {
  const Run result = run(argv);
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

TEST(CliNumbers, OrchestrateRejectsNegativeRetries) {
  const std::string out = temp_path("orch");
  expect_usage_error({MANYTIERS_ORCH_BIN, "--grid", "smoke", "--workers", "1",
                      "--retries", "-1", "--out", out, "--work-dir",
                      out + ".parts"},
                     "--retries");
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
