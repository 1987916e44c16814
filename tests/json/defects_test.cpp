// Regression tests for round-trip defects of the hand-rolled readers and
// escape writers that flat_json replaced. Each drives only the public
// API of its format, so it reads the same against any codec.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "driver/report.hpp"
#include "obs/registry.hpp"
#include "serve/protocol.hpp"

namespace manytiers {
namespace {

TEST(Defects, ServeRequestControlByteInMarketRoundTrips) {
  serve::Request request;
  request.id = 1;
  request.kind = serve::QueryKind::Schedule;
  request.market = "EU ISP\x01/ced/linear";
  request.strategy = "Optimal";
  EXPECT_EQ(serve::parse_request(serve::serialize_request(request)).market,
            request.market);
}

TEST(Defects, ServeErrorTextWithNewlineAndTabRoundTrips) {
  const std::string message = "line one\nline two\tafter a tab";
  const serve::Response parsed =
      serve::parse_response(serve::error_payload(3, 1, message));
  EXPECT_EQ(parsed.error, message);
}

TEST(Defects, SidecarMetricNameWithTabRoundTrips) {
  obs::Snapshot snapshot;
  snapshot.counters["name\twith tab"] = 2;
  snapshot.histograms["hist\x1f"] = {1, 2.0, {{1, 1}}};
  const obs::Snapshot back =
      obs::parse_snapshot(obs::snapshot_to_json(snapshot));
  EXPECT_EQ(back.counters, snapshot.counters);
  EXPECT_EQ(back.histograms.count("hist\x1f"), 1u);
}

// A v1 report with timing and `cells` one-point cells, as text.
std::string timed_report(std::size_t cells) {
  driver::BatchReport report;
  report.grid_name = "tiny";
  report.signature = "tiny|sig";
  report.max_bundles = 2;
  report.points_per_cell = 1;
  report.threads = 3;
  report.wall_ms = 12.5;
  for (std::size_t c = 0; c < cells; ++c) {
    driver::CellResult cell;
    cell.cell = driver::parse_cell_key("EU ISP/ced/linear/Optimal");
    cell.sweep.min_capture = {0.5, 0.75};
    cell.sweep.max_capture = {0.5, 0.75};
    cell.sweep.points = 1;
    cell.wall_ms = 1.25;
    report.cells.push_back(cell);
  }
  return driver::report_to_string(report);
}

void expect_rejected(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  std::istringstream in(text);
  EXPECT_THROW(driver::read_report(in), std::invalid_argument) << to;
}

TEST(Defects, BatchReportGarbledNumbersThrowInsteadOfReadingZero) {
  const std::string text = timed_report(1);
  std::istringstream in(text);
  EXPECT_EQ(driver::read_report(in).threads, 3u);
  expect_rejected(text, "\"wall_ms\":1.25", "\"wall_ms\":garbage");
  expect_rejected(text, "\"threads\":3", "\"threads\":zz");
  // No cell whose envelope length could expose a max_bundles of 0.
  expect_rejected(timed_report(0), "\"max_bundles\":2",
                  "\"max_bundles\":x2");
}

}  // namespace
}  // namespace manytiers
