// Every line format on the flat_json codec, held to one contract:
//   * hostile strings (every byte 0x00-0x1f, '"', '\', non-ASCII UTF-8)
//     round-trip exactly;
//   * a seeded byte flip, deletion or truncation of a valid line either
//     throws std::invalid_argument or parses to a value that serializes
//     and parses back to itself.
// The serve wire bytes themselves are pinned in wire_pins_test.cpp.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../orchestrator/event_parser.hpp"
#include "driver/report.hpp"
#include "json/flat_json.hpp"
#include "obs/registry.hpp"
#include "orchestrator/events.hpp"
#include "orchestrator/manifest.hpp"
#include "serve/protocol.hpp"

namespace manytiers {
namespace {

std::string hostile(std::string_view tag) {
  std::string s(tag);
  for (char c = 0; c < 0x20; ++c) s += c;
  return s + "\"\\/ caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
}

// Seeded damage to a valid text: bit flips, structural-byte swaps,
// short deletions and truncations.
std::vector<std::string> mutations(const std::string& text,
                                   std::uint64_t seed, int count) {
  static constexpr std::string_view kStructural = "\"\\{}[],:0-.e";
  std::mt19937_64 rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    std::string m = text;
    const std::size_t at = rng() % m.size();
    switch (rng() % 4) {
      case 0: m[at] = static_cast<char>(m[at] ^ (1 << (rng() % 8))); break;
      case 1: m[at] = kStructural[rng() % kStructural.size()]; break;
      case 2: m.erase(at, 1 + rng() % 3); break;
      default: m.resize(at); break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

// The contract for one format: `parse` throws std::invalid_argument on a
// damaged text or returns a value whose serialization is a fixed point.
template <typename T>
void expect_mutations_throw_or_round_trip(
    const std::string& valid, std::uint64_t seed,
    const std::function<T(const std::string&)>& parse,
    const std::function<std::string(const T&)>& write) {
  ASSERT_EQ(write(parse(valid)), valid);
  int survived = 0;
  for (const std::string& mutated : mutations(valid, seed, 600)) {
    std::string once;
    try {
      once = write(parse(mutated));
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++survived;
    EXPECT_EQ(write(parse(once)), once) << "mutated: " << mutated;
  }
  // Some damage (a flipped digit) must still parse, or the property
  // above was never exercised.
  EXPECT_GT(survived, 0);
}

// ---------------------------------------------------------- BATCH_JSON

driver::BatchReport sample_report(bool per_point) {
  driver::BatchReport report;
  report.grid_name = hostile("grid");
  report.signature = hostile("sig");
  report.max_bundles = 3;
  report.points_per_cell = 2;
  report.shard_count = 2;
  report.threads = 4;
  report.wall_ms = 12.345;
  report.per_point = per_point;
  driver::CellResult cell;
  cell.cell = driver::parse_cell_key("EU ISP/ced/linear/Optimal");
  cell.sweep.min_capture = {0.25, 0.5, 0.99999999999999989};
  cell.sweep.max_capture = {0.25, 0.75, 1.0};
  cell.sweep.points = 2;
  cell.wall_ms = 0.5;
  if (per_point) {
    cell.detail = {{0, {0.25, 0.5, 0.99999999999999989}},
                   {1, {0.25, 0.75, 1.0}}};
  }
  report.cells.push_back(cell);
  driver::CellResult untouched;  // a shard cell with no owned points
  untouched.cell = driver::parse_cell_key("CDN/logit/concave/Cost-weighted");
  untouched.sweep = driver::empty_envelope(report.max_bundles);
  report.cells.push_back(untouched);
  return report;
}

driver::BatchReport parse_report(const std::string& text) {
  std::istringstream in(text);
  return driver::read_report(in);
}

std::string report_text(const driver::BatchReport& report) {
  return driver::report_to_string(report);
}

TEST(BatchJson, HostileStringsRoundTrip) {
  const driver::BatchReport report = sample_report(false);
  const driver::BatchReport back = parse_report(report_text(report));
  EXPECT_EQ(back.grid_name, report.grid_name);
  EXPECT_EQ(back.signature, report.signature);
  EXPECT_EQ(back.wall_ms, report.wall_ms);
  EXPECT_EQ(back.cells[0].sweep.min_capture, report.cells[0].sweep.min_capture);
}

TEST(BatchJson, V1MutationsThrowOrRoundTrip) {
  expect_mutations_throw_or_round_trip<driver::BatchReport>(
      report_text(sample_report(false)), 1, parse_report, report_text);
}

TEST(BatchJson, V2MutationsThrowOrRoundTrip) {
  expect_mutations_throw_or_round_trip<driver::BatchReport>(
      report_text(sample_report(true)), 2, parse_report, report_text);
}

// -------------------------------------------------------- ORCH_MANIFEST

orchestrator::Manifest sample_manifest() {
  orchestrator::Manifest manifest;
  manifest.grid = hostile("grid");
  manifest.signature = hostile("sig");
  manifest.workers = 2;
  manifest.shards = {{"done", 1, 0}, {"failed", 3, 3}};
  return manifest;
}

TEST(OrchManifest, HostileStringsRoundTrip) {
  const orchestrator::Manifest manifest = sample_manifest();
  const orchestrator::Manifest back =
      orchestrator::parse_manifest(orchestrator::manifest_to_string(manifest));
  EXPECT_EQ(back.grid, manifest.grid);
  EXPECT_EQ(back.signature, manifest.signature);
}

TEST(OrchManifest, MutationsThrowOrRoundTrip) {
  expect_mutations_throw_or_round_trip<orchestrator::Manifest>(
      orchestrator::manifest_to_string(sample_manifest()), 3,
      [](const std::string& text) {
        return orchestrator::parse_manifest(text);
      },
      orchestrator::manifest_to_string);
}

// ------------------------------------------------------------ ORCH_JSON

using orchestrator::test::ParsedEvent;

// A parsed event back as a line: its fields' raw value text, key order.
std::string write_event(const ParsedEvent& event) {
  std::string line = "ORCH_JSON ";
  json::Writer writer(line);
  for (const auto& [key, raw] : event.fields) writer.key(key) += raw;
  writer.close();
  return line;
}

TEST(OrchJson, HostileStringsRoundTrip) {
  const std::string reason = hostile("reason");
  const ParsedEvent event = orchestrator::test::parse_event_line(
      orchestrator::Event("bad-part").field("reason", reason).line());
  EXPECT_EQ(json::Object("{\"r\":" + event.at("reason") + "}")
                .get<std::string>("r"),
            reason);
}

TEST(OrchJson, MutationsThrowOrRoundTrip) {
  const std::string line = orchestrator::Event("hedge-spawn")
                               .field("shard", std::size_t{1})
                               .field("pid", 4242L)
                               .field("age_ms", 12.5)
                               .field("path", hostile("path"))
                               .line();
  expect_mutations_throw_or_round_trip<ParsedEvent>(
      write_event(orchestrator::test::parse_event_line(line)), 4,
      orchestrator::test::parse_event_line, write_event);
}

// ------------------------------------------------- obs sidecar + series

obs::Snapshot sample_snapshot() {
  obs::Snapshot snapshot;
  snapshot.pid = 4242;
  snapshot.t_us = 1700000000000000;
  snapshot.counters[hostile("counter")] = 42;
  snapshot.gauges[hostile("gauge")] = -7;
  snapshot.histograms[hostile("hist")] = {3, 201.5, {{0, 1}, {6, 2}}};
  return snapshot;
}

TEST(ObsSidecar, HostileStringsRoundTrip) {
  const obs::Snapshot snapshot = sample_snapshot();
  const obs::Snapshot back =
      obs::parse_snapshot(obs::snapshot_to_json(snapshot));
  EXPECT_EQ(back.counters, snapshot.counters);
  EXPECT_EQ(back.gauges, snapshot.gauges);
  ASSERT_EQ(back.histograms.count(hostile("hist")), 1u);
  EXPECT_EQ(back.histograms.at(hostile("hist")).buckets,
            snapshot.histograms.at(hostile("hist")).buckets);
}

TEST(ObsSidecar, MutationsThrowOrRoundTrip) {
  expect_mutations_throw_or_round_trip<obs::Snapshot>(
      obs::snapshot_to_json(sample_snapshot()), 5,
      [](const std::string& text) { return obs::parse_snapshot(text); },
      obs::snapshot_to_json);
}

std::vector<obs::DeltaTick> sample_series() {
  obs::DeltaTick first;
  first.pid = 7;
  first.t_us = 100;
  first.counters[hostile("c")] = 2;
  first.gauges[hostile("g")] = -1;
  first.histograms[hostile("h")] = {1, 3.5, {{1, 1}}};
  obs::DeltaTick second = first;
  second.seq = 1;
  second.t_us = 200;
  return {first, second};
}

TEST(ObsSeries, HostileStringsRoundTrip) {
  const auto back =
      obs::parse_time_series(obs::time_series_to_json(sample_series()));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].counters, sample_series()[1].counters);
  EXPECT_EQ(back[1].gauges, sample_series()[1].gauges);
}

TEST(ObsSeries, MutationsThrowOrRoundTrip) {
  expect_mutations_throw_or_round_trip<std::vector<obs::DeltaTick>>(
      obs::time_series_to_json(sample_series()), 6,
      [](const std::string& text) { return obs::parse_time_series(text); },
      obs::time_series_to_json);
}

// ----------------------------------------------------------- serve wire

using serve::QueryKind;

std::vector<serve::Request> sample_requests() {
  std::vector<serve::Request> out(6);
  out[0].kind = QueryKind::Price;
  out[0].q = 123.456;
  out[0].d = 1e-7;
  out[0].cost_class = 2;
  out[1].kind = QueryKind::Schedule;
  out[2].kind = QueryKind::Requote;
  out[2].flow = 19;
  out[3].kind = QueryKind::Reload;
  out[3].seed = 18446744073709551615u;
  out[3].n_flows = 400;
  out[3].updates = hostile("updates");
  out[4].kind = QueryKind::Health;
  out[5].kind = QueryKind::Stats;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].id = i + 1;
    if (i < 3) {
      out[i].market = hostile("market");
      out[i].strategy = hostile("strategy");
      out[i].bundles = 3;
    }
  }
  return out;
}

std::vector<serve::Response> sample_responses() {
  std::vector<serve::Response> out(7);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].id = i + 1;
    out[i].ok = true;
    out[i].epoch = 3;
  }
  out[0].kind = QueryKind::Price;
  out[0].tier = 2;
  out[0].price = 41.123456789012345;
  out[0].rel_cost = 0.1;
  out[1] = out[0];
  out[1].kind = QueryKind::Requote;
  out[1].blended_price = 1e21;
  out[2].kind = QueryKind::Schedule;
  out[2].capture = 0.95330382738460162;
  out[2].tiers = {{15.25, 87.99, 110.52, 16, 28016.5},
                  {28.88, -0.0, 2.2250738585072014e-308, 10, 4892.3}};
  out[3].kind = QueryKind::Reload;
  out[3].markets = 24;
  out[3].recalibrated = 3;
  out[4].kind = QueryKind::Health;
  out[4].state = hostile("state");
  out[4].active_connections = 5;
  out[4].inflight = 2;
  out[4].shed = 123;
  out[5] = out[4];
  out[5].kind = QueryKind::Stats;
  out[5].version = hostile("version");
  out[5].t_us = 1700000000123456;
  out[5].stats_pid = -4242;
  out[5].stats_counters = {{hostile("counter"), 10}};
  out[5].stats_gauges = {{hostile("gauge"), -1}};
  serve::StatsHist hist;
  hist.name = hostile("hist");
  hist.count = 3;
  hist.sum = 301.5;
  hist.p50 = 64;
  hist.p99 = 128;
  hist.p999 = 128;
  hist.buckets = {{6, 2}, {7, 1}};
  out[5].stats_hists = {hist, serve::StatsHist{}};
  out[6].ok = false;
  out[6].code = hostile("code");
  out[6].error = hostile("error");
  return out;
}

TEST(ServeWire, HostileStringsRoundTrip) {
  for (const serve::Request& request : sample_requests()) {
    const serve::Request back =
        serve::parse_request(serve::serialize_request(request));
    EXPECT_EQ(back.market, request.market);
    EXPECT_EQ(back.strategy, request.strategy);
    EXPECT_EQ(back.updates, request.updates);
    EXPECT_EQ(serve::serialize_request(back),
              serve::serialize_request(request));
  }
  for (const serve::Response& response : sample_responses()) {
    const serve::Response back =
        serve::parse_response(serve::serialize_response(response));
    EXPECT_EQ(back.error, response.error);
    EXPECT_EQ(back.code, response.code);
    EXPECT_EQ(back.state, response.state);
    EXPECT_EQ(back.version, response.version);
    EXPECT_EQ(back.stats_counters, response.stats_counters);
    EXPECT_EQ(back.stats_gauges, response.stats_gauges);
    for (std::size_t i = 0; i < back.stats_hists.size(); ++i) {
      EXPECT_EQ(back.stats_hists[i].name, response.stats_hists[i].name);
    }
    EXPECT_EQ(serve::serialize_response(back),
              serve::serialize_response(response));
  }
}

TEST(ServeWire, RequestMutationsThrowOrRoundTrip) {
  std::uint64_t seed = 100;
  for (const serve::Request& request : sample_requests()) {
    expect_mutations_throw_or_round_trip<serve::Request>(
        serve::serialize_request(request), ++seed,
        [](const std::string& text) { return serve::parse_request(text); },
        serve::serialize_request);
  }
}

TEST(ServeWire, ResponseMutationsThrowOrRoundTrip) {
  std::uint64_t seed = 200;
  for (const serve::Response& response : sample_responses()) {
    expect_mutations_throw_or_round_trip<serve::Response>(
        serve::serialize_response(response), ++seed,
        [](const std::string& text) { return serve::parse_response(text); },
        serve::serialize_response);
  }
}

}  // namespace
}  // namespace manytiers
