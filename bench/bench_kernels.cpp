// google-benchmark timings for the library's computational kernels:
// calibration, bundling strategies, the optimal interval DP, the logit
// fixed point, routing, GeoIP lookup, and NetFlow aggregation.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.hpp"
#include "bundling/optimal.hpp"
#include "geo/geoip.hpp"
#include "bundling/strategies.hpp"
#include "netflow/collector.hpp"
#include "netflow/exporter.hpp"
#include "topology/dijkstra.hpp"
#include "topology/internet2.hpp"

namespace {

using namespace manytiers;

const workload::FlowSet& eu_flows(std::size_t n) {
  static std::map<std::size_t, workload::FlowSet> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, workload::generate_eu_isp({.seed = 42, .n_flows = n}))
             .first;
  }
  return it->second;
}

void BM_CalibrateCed(benchmark::State& state) {
  const auto& flows = eu_flows(std::size_t(state.range(0)));
  const auto cost = cost::make_linear_cost(0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pricing::Market::calibrate(
        flows, pricing::DemandSpec{}, *cost, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CalibrateCed)->Range(64, 4096)->Complexity();

void BM_CalibrateLogit(benchmark::State& state) {
  const auto& flows = eu_flows(std::size_t(state.range(0)));
  const auto cost = cost::make_linear_cost(0.2);
  pricing::DemandSpec spec;
  spec.kind = demand::DemandKind::Logit;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pricing::Market::calibrate(flows, spec, *cost, 20.0));
  }
}
BENCHMARK(BM_CalibrateLogit)->Range(64, 4096);

void BM_OptimalDp(benchmark::State& state) {
  const auto m = bench::market(eu_flows(std::size_t(state.range(0))),
                               demand::DemandKind::ConstantElasticity,
                               *cost::make_linear_cost(0.2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bundling::ced_optimal_series(m.valuations(), m.costs(), 1.1, 4));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OptimalDp)->Range(64, 2048)->Complexity(benchmark::oNSquared);

void BM_ProfitWeightedBundling(benchmark::State& state) {
  const auto m = bench::market(eu_flows(std::size_t(state.range(0))),
                               demand::DemandKind::ConstantElasticity,
                               *cost::make_linear_cost(0.2));
  const auto pi = pricing::potential_profits(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bundling::profit_weighted_series(pi, m.costs(), 4));
  }
}
BENCHMARK(BM_ProfitWeightedBundling)->Range(64, 4096);

void BM_LogitFixedPoint(benchmark::State& state) {
  const auto m = bench::market(eu_flows(std::size_t(state.range(0))),
                               demand::DemandKind::Logit,
                               *cost::make_linear_cost(0.2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.logit().optimal_prices(m.valuations(), m.costs()));
  }
}
BENCHMARK(BM_LogitFixedPoint)->Range(64, 4096);

void BM_LogitGradientAscent(benchmark::State& state) {
  const auto m = bench::market(eu_flows(64),
                               demand::DemandKind::Logit,
                               *cost::make_linear_cost(0.2));
  // Price a handful of bundles, the realistic use of the heuristic.
  const auto res =
      pricing::run_strategy(m, pricing::Strategy::ProfitWeighted, 4);
  std::vector<double> bundle_v, bundle_c;
  for (const auto& bundle : res.pricing.bundles) {
    std::vector<double> v, c;
    for (const auto i : bundle) {
      v.push_back(m.valuations()[i]);
      c.push_back(m.costs()[i]);
    }
    bundle_v.push_back(m.logit().bundle_valuation(v));
    bundle_c.push_back(m.logit().bundle_cost(v, c));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.logit().gradient_prices(bundle_v, bundle_c));
  }
}
BENCHMARK(BM_LogitGradientAscent);

void BM_DijkstraInternet2(benchmark::State& state) {
  const auto net = topology::internet2_network();
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::all_pairs_distances(net));
  }
}
BENCHMARK(BM_DijkstraInternet2);

void BM_GeoIpLookup(benchmark::State& state) {
  const auto db = geo::build_synthetic_geoip();
  util::Rng rng(3);
  std::vector<geo::IpV4> ips;
  for (int i = 0; i < 1024; ++i) {
    ips.push_back(geo::synthetic_host(rng.index(geo::world_cities().size()),
                                      std::uint32_t(i)));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.lookup_city(ips[k++ & 1023]));
  }
}
BENCHMARK(BM_GeoIpLookup);

void BM_NetflowAggregation(benchmark::State& state) {
  const auto& flows = eu_flows(256);
  netflow::SampledExporter exporter(
      {.sampling_rate = 100, .window_seconds = 3600}, util::Rng(9));
  std::vector<netflow::FlowRecord> records;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    netflow::GroundTruthFlow gt;
    gt.key.src_ip = flows[i].src_ip;
    gt.key.dst_ip = flows[i].dst_ip;
    gt.key.src_port = std::uint16_t(i);
    gt.bytes = std::uint64_t(flows[i].demand_mbps * 1e6);
    gt.packets = std::max<std::uint64_t>(1, gt.bytes / 1400);
    const std::vector<netflow::RouterId> path{1, 2, 3};
    const auto recs = exporter.export_flow(gt, path);
    records.insert(records.end(), recs.begin(), recs.end());
  }
  for (auto _ : state) {
    netflow::Collector collector(100);
    collector.ingest(records);
    benchmark::DoNotOptimize(collector.aggregate());
  }
}
BENCHMARK(BM_NetflowAggregation);

void BM_CaptureSeriesEndToEnd(benchmark::State& state) {
  const auto m = bench::linear_market(workload::DatasetKind::EuIsp,
                                      demand::DemandKind::ConstantElasticity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pricing::capture_series(
        m, pricing::Strategy::ProfitWeighted, 6));
  }
}
BENCHMARK(BM_CaptureSeriesEndToEnd);

}  // namespace
