// Wire-byte pins: the literal payloads of one request and one response
// of every serve query kind, as the serializers wrote them before the
// flat_json codec existed. The codec must not move a single wire byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace manytiers::serve {
namespace {

TEST(ServeWire, PayloadBytesArePinned) {
  Request request;
  request.id = 42;
  request.kind = QueryKind::Price;
  request.market = "EU ISP/ced/linear";
  request.strategy = "Optimal";
  request.bundles = 3;
  request.q = 123.456;
  request.d = 1e-7;
  request.cost_class = 2;
  std::vector<std::string> requests = {serialize_request(request)};
  request = {};
  request.id = 7;
  request.kind = QueryKind::Schedule;
  request.market = "CDN/logit/concave";
  request.strategy = "Profit-weighted";
  requests.push_back(serialize_request(request));
  request = {};
  request.id = 8;
  request.kind = QueryKind::Requote;
  request.market = "Internet2/ced/linear";
  request.strategy = "Cost-weighted";
  request.bundles = 6;
  request.flow = 19;
  requests.push_back(serialize_request(request));
  request = {};
  request.id = 9;
  request.kind = QueryKind::Reload;
  request.seed = 18446744073709551615u;
  request.n_flows = 400;
  request.updates = "down,Chicago,New York;w,A,B,512.5";
  requests.push_back(serialize_request(request));
  request = {};
  request.id = 10;
  request.kind = QueryKind::Health;
  requests.push_back(serialize_request(request));
  request.id = 11;
  request.kind = QueryKind::Stats;
  requests.push_back(serialize_request(request));
  const std::vector<std::string> pinned_requests = {
      R"({"id":42,"kind":"price","market":"EU ISP/ced/linear","strategy":"Optimal","bundles":3,"q":123.456,"d":9.9999999999999995e-08,"class":2})",
      R"({"id":7,"kind":"schedule","market":"CDN/logit/concave","strategy":"Profit-weighted","bundles":0})",
      R"({"id":8,"kind":"requote","market":"Internet2/ced/linear","strategy":"Cost-weighted","bundles":6,"flow":19})",
      R"({"id":9,"kind":"reload","seed":18446744073709551615,"n_flows":400,"updates":"down,Chicago,New York;w,A,B,512.5"})",
      R"({"id":10,"kind":"health"})",
      R"({"id":11,"kind":"stats"})",
  };
  EXPECT_EQ(requests, pinned_requests);
  for (const std::string& payload : pinned_requests) {
    EXPECT_EQ(serialize_request(parse_request(payload)),
              payload);
  }

  Response price;
  price.id = 42;
  price.ok = true;
  price.epoch = 3;
  price.kind = QueryKind::Price;
  price.tier = 2;
  price.price = 41.123456789012345;
  price.rel_cost = 0.1;
  Response requote = price;
  requote.kind = QueryKind::Requote;
  requote.blended_price = 1e21;
  Response schedule;
  schedule.id = 7;
  schedule.ok = true;
  schedule.epoch = 1;
  schedule.kind = QueryKind::Schedule;
  schedule.capture = 0.95330382738460162;
  schedule.tiers = {{15.25, 87.99, 110.52, 16, 28016.5},
                    {28.880000000000003, -0.0, 2.2250738585072014e-308, 10,
                     4892.3}};
  Response reload;
  reload.id = 9;
  reload.ok = true;
  reload.epoch = 4;
  reload.kind = QueryKind::Reload;
  reload.markets = 24;
  reload.recalibrated = 3;
  Response health;
  health.id = 10;
  health.ok = true;
  health.epoch = 4;
  health.kind = QueryKind::Health;
  health.state = "overloaded";
  health.active_connections = 5;
  health.inflight = 2;
  health.shed = 123;
  health.markets = 24;
  Response stats = health;
  stats.id = 11;
  stats.kind = QueryKind::Stats;
  stats.t_us = 1700000000123456;
  stats.stats_pid = 4242;
  stats.state = "ready";
  stats.stats_counters = {{"serve.requests", 10},
                          {"serve.shed.overloaded", 0}};
  stats.stats_gauges = {{"serve.inflight", -1}};
  StatsHist hist;
  hist.name = "serve.latency_us.all";
  hist.count = 3;
  hist.sum = 301.5;
  hist.p50 = 64;
  hist.p99 = 128;
  hist.p999 = 128;
  hist.buckets = {{6, 2}, {7, 1}};
  StatsHist empty;
  empty.name = "serve.empty";
  stats.stats_hists = {hist, empty};
  const std::vector<std::string> responses = {
      serialize_response(price),
      serialize_response(requote),
      serialize_response(schedule),
      serialize_response(reload),
      serialize_response(health),
      serialize_response(stats),
      error_payload(12, 4, kCodeOverloaded,
                           "server overloaded: 5 in flight"),
      error_payload(13, 0, "unknown market \"x\""),
  };
  const std::vector<std::string> pinned_responses = {
      R"({"id":42,"ok":true,"epoch":3,"kind":"price","tier":2,"price":41.123456789012344,"rel_cost":0.10000000000000001})",
      R"({"id":42,"ok":true,"epoch":3,"kind":"requote","tier":2,"price":41.123456789012344,"rel_cost":0.10000000000000001,"blended_price":1e+21})",
      R"({"id":7,"ok":true,"epoch":1,"kind":"schedule","capture":0.95330382738460162,"tiers":[{"tier":0,"price":15.25,"f_lo":87.989999999999995,"f_hi":110.52,"flows":16,"demand_mbps":28016.5},{"tier":1,"price":28.880000000000003,"f_lo":-0,"f_hi":2.2250738585072014e-308,"flows":10,"demand_mbps":4892.3000000000002}]})",
      R"({"id":9,"ok":true,"epoch":4,"kind":"reload","markets":24,"recalibrated":3})",
      R"({"id":10,"ok":true,"epoch":4,"kind":"health","state":"overloaded","active_connections":5,"inflight":2,"shed":123,"markets":24})",
      R"({"id":11,"ok":true,"epoch":4,"kind":"stats","version":"1.2","t_us":1700000000123456,"pid":4242,"state":"ready","active_connections":5,"inflight":2,"shed":123,"markets":24,"counters":[["serve.requests",10],["serve.shed.overloaded",0]],"gauges":[["serve.inflight",-1]],"hists":[{"name":"serve.latency_us.all","count":3,"sum":301.5,"p50":64,"p99":128,"p999":128,"buckets":[[6,2],[7,1]]},{"name":"serve.empty","count":0,"sum":0,"p50":0,"p99":0,"p999":0,"buckets":[]}]})",
      R"({"id":12,"ok":false,"epoch":4,"code":"overloaded","error":"server overloaded: 5 in flight"})",
      R"({"id":13,"ok":false,"epoch":0,"code":"bad_request","error":"unknown market \"x\""})",
  };
  EXPECT_EQ(responses, pinned_responses);
  for (const std::string& payload : pinned_responses) {
    EXPECT_EQ(serialize_response(parse_response(payload)),
              payload);
  }
}

}  // namespace
}  // namespace manytiers::serve
