#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/grid.hpp"
#include "driver/runner.hpp"
#include "json/flat_json.hpp"
#include "obs/registry.hpp"

namespace manytiers::obs {
namespace {

TEST(TraceFile, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "trace_roundtrip.json";
  const std::vector<std::string> events{
      R"({"name":"a","ph":"B","ts":1,"pid":1,"tid":0})",
      R"({"name":"a","ph":"E","ts":2,"pid":1,"tid":0})",
      R"({"name":"mark","ph":"i","ts":3,"pid":1,"tid":0,"s":"t"})",
  };
  write_trace_file(path, events);
  EXPECT_EQ(read_trace_events(path), events);
  // An empty event list is still a valid (empty) array.
  write_trace_file(path, {});
  EXPECT_TRUE(read_trace_events(path).empty());
}

TEST(TraceFile, ReadRejectsNonArrayFiles) {
  const std::string path = ::testing::TempDir() + "trace_bad.json";
  std::ofstream(path) << "{\"not\":\"an array\"}\n";
  EXPECT_THROW(read_trace_events(path), std::invalid_argument);
  EXPECT_THROW(read_trace_events(::testing::TempDir() + "trace_missing.json"),
               std::invalid_argument);
}

// The raw value text of `key` in one event ("" when absent).
std::string field(const std::string& event, const std::string& key) {
  const json::Object object(event);
  const json::Value* value = object.find(key);
  return value == nullptr ? std::string() : std::string(value->text());
}

// One test, deliberately ordered inside a single body: Tracer::start is
// irreversible in-process, so the untraced baseline MUST be computed
// before the tracer comes up. This is the in-process half of the
// byte-identity invariant (the obs_smoke ctest covers the CLI half).
TEST(Tracer, TracingAndMetricsNeverChangeReportBytes) {
  auto grid = driver::smoke_grid();
  grid.base.n_flows = 30;  // keep the test quick; still multi-threaded

  // 1. Untraced, no metrics: the baseline bytes.
  const std::string baseline =
      driver::report_to_string(driver::run_grid(grid, {.threads = 2}),
                               /*include_timing=*/false);

  // 2. Same run with the registry hot: still identical.
  {
    const ScopedEnable metrics;
    EXPECT_EQ(driver::report_to_string(driver::run_grid(grid, {.threads = 2}),
                                       /*include_timing=*/false),
              baseline);
  }

  // 3. Now bring the tracer up and run traced + metered.
  ASSERT_FALSE(Tracer::instance().active());
  const std::string trace_path = ::testing::TempDir() + "run_grid.trace.json";
  Tracer::instance().start(trace_path);
  ASSERT_TRUE(Tracer::instance().active());
  Tracer::instance().set_process_name("trace_test");
  std::string traced;
  {
    const ScopedEnable metrics;
    traced = driver::report_to_string(driver::run_grid(grid, {.threads = 2}),
                                      /*include_timing=*/false);
  }
  EXPECT_EQ(traced, baseline);

  // 4. Flush and validate the trace itself: every line is an object,
  // B/E events nest as a proper stack per (pid, tid), and the phase +
  // parallel_for instrumentation actually fired.
  Tracer::instance().flush();
  const auto events = read_trace_events(trace_path);
  ASSERT_FALSE(events.empty());

  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      stacks;  // (pid, tid) -> open span names
  bool saw_chunk = false;
  bool saw_calibrate = false;
  bool saw_sweep = false;
  for (const auto& event : events) {
    ASSERT_TRUE(event.front() == '{' && event.back() == '}') << event;
    const std::string ph = field(event, "ph");
    const std::string name = field(event, "name");
    ASSERT_FALSE(ph.empty()) << event;
    ASSERT_FALSE(field(event, "pid").empty()) << event;
    const auto track = std::make_pair(field(event, "pid"), field(event, "tid"));
    if (ph == "\"B\"") {
      ASSERT_FALSE(field(event, "ts").empty()) << event;
      stacks[track].push_back(name);
      if (name == "\"parallel_for.chunk\"") saw_chunk = true;
      if (name == "\"run_grid.calibrate\"") saw_calibrate = true;
      if (name == "\"run_grid.sweep\"") saw_sweep = true;
    } else if (ph == "\"E\"") {
      ASSERT_FALSE(stacks[track].empty())
          << "E with no open B on track " << track.first << "/" << track.second;
      stacks[track].pop_back();
    } else {
      // Only the known non-pair phases may appear.
      ASSERT_TRUE(ph == "\"i\"" || ph == "\"X\"" || ph == "\"M\"") << event;
    }
  }
  for (const auto& [track, open] : stacks) {
    EXPECT_TRUE(open.empty()) << "unclosed span " << open.back() << " on track "
                              << track.first << "/" << track.second;
  }
  EXPECT_TRUE(saw_calibrate);
  EXPECT_TRUE(saw_sweep);
  EXPECT_TRUE(saw_chunk);
}

}  // namespace
}  // namespace manytiers::obs
