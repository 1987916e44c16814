#include "serve/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "bundling/bundle.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "workload/generators.hpp"

namespace manytiers::serve {

namespace {

constexpr pricing::Strategy kAllStrategies[] = {
    pricing::Strategy::Optimal,        pricing::Strategy::DemandWeighted,
    pricing::Strategy::CostWeighted,   pricing::Strategy::ProfitWeighted,
    pricing::Strategy::CostDivision,   pricing::Strategy::IndexDivision,
    pricing::Strategy::ClassAwareProfitWeighted};

// Reduce one priced bundling to the tier schedule queries consume.
// Tiers sort ascending by relative-cost span (then price, then the
// original bundle index), which both presents the schedule the way the
// paper draws tiers and makes the order deterministic.
Schedule make_schedule(const pricing::Market& market,
                       const pricing::StrategyResult& result) {
  const auto& bundling = result.pricing.bundles;
  const auto& rel = market.relative_costs();
  const auto& flows = market.flows();

  struct Raw {
    TierInfo info;
    std::size_t bundle = 0;
  };
  std::vector<Raw> raw(bundling.size());
  for (std::size_t b = 0; b < bundling.size(); ++b) {
    Raw& tier = raw[b];
    tier.bundle = b;
    tier.info.price = result.pricing.bundle_prices[b];
    tier.info.n_flows = bundling[b].size();
    tier.info.rel_cost_lo = std::numeric_limits<double>::infinity();
    tier.info.rel_cost_hi = -std::numeric_limits<double>::infinity();
    for (const std::size_t i : bundling[b]) {
      tier.info.rel_cost_lo = std::min(tier.info.rel_cost_lo, rel[i]);
      tier.info.rel_cost_hi = std::max(tier.info.rel_cost_hi, rel[i]);
      tier.info.demand_mbps += flows[i].demand_mbps;
    }
  }
  std::sort(raw.begin(), raw.end(), [](const Raw& a, const Raw& b) {
    if (a.info.rel_cost_lo != b.info.rel_cost_lo) {
      return a.info.rel_cost_lo < b.info.rel_cost_lo;
    }
    if (a.info.rel_cost_hi != b.info.rel_cost_hi) {
      return a.info.rel_cost_hi < b.info.rel_cost_hi;
    }
    if (a.info.price != b.info.price) return a.info.price < b.info.price;
    return a.bundle < b.bundle;
  });

  Schedule schedule;
  schedule.capture = result.capture;
  schedule.tiers.reserve(raw.size());
  std::vector<std::size_t> tier_of_bundle(raw.size());
  for (std::size_t t = 0; t < raw.size(); ++t) {
    schedule.tiers.push_back(raw[t].info);
    tier_of_bundle[raw[t].bundle] = t;
  }
  const auto bundle_of =
      bundling::bundle_of_flow(bundling, market.size());
  schedule.tier_of_flow.resize(market.size());
  for (std::size_t i = 0; i < market.size(); ++i) {
    schedule.tier_of_flow[i] = tier_of_bundle[bundle_of[i]];
  }
  return schedule;
}

}  // namespace

const MarketEntry* Snapshot::find_market(std::string_view key) const {
  const auto it = by_key.find(std::string(key));
  if (it == by_key.end()) return nullptr;
  return markets[it->second].get();
}

std::optional<std::size_t> Snapshot::strategy_slot(
    pricing::Strategy strategy) const {
  for (std::size_t s = 0; s < grid.strategies.size(); ++s) {
    if (grid.strategies[s] == strategy) return s;
  }
  return std::nullopt;
}

std::string market_key(workload::DatasetKind dataset,
                       demand::DemandKind demand, driver::CostKind cost) {
  std::string key;
  key += workload::to_string(dataset);
  key += '/';
  key += driver::to_string(demand);
  key += '/';
  key += driver::to_string(cost);
  return key;
}

std::optional<pricing::Strategy> strategy_from_name(std::string_view name) {
  for (const auto strategy : kAllStrategies) {
    if (pricing::to_string(strategy) == name) return strategy;
  }
  return std::nullopt;
}

std::shared_ptr<const MarketEntry> build_market_entry(
    const driver::ExperimentGrid& grid, const workload::FlowSet& flows,
    std::size_t ds_i, std::size_t dem_i, std::size_t cost_i) {
  pricing::DemandSpec spec;
  spec.kind = grid.demand_kinds[dem_i];
  spec.alpha = grid.base.alpha;
  spec.no_purchase_share = grid.base.s0;
  auto cost_model =
      driver::make_cost_model(grid.cost_kinds[cost_i], grid.base.theta);
  auto entry = std::make_shared<MarketEntry>(pricing::Market::calibrate(
      flows, spec, *cost_model, grid.base.blended_price));
  entry->dataset = grid.datasets[ds_i];
  entry->demand = grid.demand_kinds[dem_i];
  entry->cost = grid.cost_kinds[cost_i];
  entry->key = market_key(entry->dataset, entry->demand, entry->cost);
  entry->cost_model = std::move(cost_model);
  // The raw (pre-expansion) maximum-distance flow anchors the cost
  // context for new-flow queries.
  std::size_t far = 0;
  for (std::size_t i = 1; i < flows.size(); ++i) {
    if (flows[i].distance_miles > flows[far].distance_miles) far = i;
  }
  entry->proxy = flows[far];

  entry->schedules.resize(grid.strategies.size());
  for (std::size_t s = 0; s < grid.strategies.size(); ++s) {
    const auto series = pricing::run_strategy_series(
        entry->market, grid.strategies[s], grid.max_bundles);
    entry->schedules[s].reserve(series.size());
    for (const auto& result : series) {
      entry->schedules[s].push_back(make_schedule(entry->market, result));
    }
  }
  return entry;
}

void validate_serve_grid(const driver::ExperimentGrid& grid) {
  driver::validate_grid(grid);
  if (grid.sweep.kind != driver::SweepAxis::Kind::None) {
    throw std::invalid_argument(
        "serve snapshot: grid \"" + grid.name +
        "\" has a sweep axis; the daemon serves base-parameter markets "
        "only");
  }
}

std::shared_ptr<const Snapshot> build_snapshot(
    const driver::ExperimentGrid& grid, const SnapshotBuildOptions& options) {
  validate_serve_grid(grid);

  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = options.epoch;
  snapshot->grid = grid;

  // Datasets generate once, shared across demand/cost combinations —
  // same sharing run_grid does.
  std::vector<workload::FlowSet> generated;
  if (options.flows_override != nullptr) {
    if (options.flows_override->size() != grid.datasets.size()) {
      throw std::invalid_argument(
          "serve snapshot: flows_override needs one flow set per grid "
          "dataset");
    }
  } else {
    generated.reserve(grid.datasets.size());
    for (const auto kind : grid.datasets) {
      generated.push_back(workload::generate_dataset(
          kind, {.seed = grid.base.seed, .n_flows = grid.base.n_flows}));
    }
  }
  const std::vector<workload::FlowSet>& flows =
      options.flows_override != nullptr ? *options.flows_override : generated;

  const std::size_t n_markets =
      grid.datasets.size() * grid.demand_kinds.size() * grid.cost_kinds.size();
  snapshot->markets.resize(n_markets);

  obs::Registry& registry = obs::Registry::instance();
  static obs::Counter& built_counter =
      registry.counter("serve.snapshot_markets");
  const obs::Span span("serve.build_snapshot",
                       obs::trace_args("markets", n_markets, "epoch",
                                       options.epoch));

  util::parallel_for(
      n_markets,
      [&](std::size_t m) {
        const std::size_t n_cost = grid.cost_kinds.size();
        const std::size_t n_dem = grid.demand_kinds.size();
        const std::size_t cost_i = m % n_cost;
        const std::size_t dem_i = (m / n_cost) % n_dem;
        const std::size_t ds_i = m / n_cost / n_dem;
        snapshot->markets[m] =
            build_market_entry(grid, flows[ds_i], ds_i, dem_i, cost_i);
      },
      options.threads);

  for (std::size_t m = 0; m < n_markets; ++m) {
    snapshot->by_key.emplace(snapshot->markets[m]->key, m);
  }
  built_counter.add(n_markets);
  return snapshot;
}

double query_relative_cost(const MarketEntry& entry, double q, double d,
                           std::size_t cls) {
  if (!std::isfinite(q) || q <= 0.0) {
    throw std::invalid_argument("price query: demand q must be finite and > 0");
  }
  if (!std::isfinite(d) || d < 0.0) {
    throw std::invalid_argument(
        "price query: distance d must be finite and >= 0");
  }
  workload::Flow query;
  query.demand_mbps = q;
  query.distance_miles = d;
  switch (entry.cost) {
    case driver::CostKind::Linear:
    case driver::CostKind::Concave:
      if (cls != 0) {
        throw std::invalid_argument(
            "price query: cost model \"" +
            std::string(driver::to_string(entry.cost)) +
            "\" has no discrete classes; class must be 0");
      }
      break;
    case driver::CostKind::Regional:
      if (cls > 2) {
        throw std::invalid_argument(
            "price query: regional class must be 0 (metro), 1 (national) "
            "or 2 (international)");
      }
      query.region = static_cast<geo::Region>(cls);
      break;
    case driver::CostKind::DestType:
      if (cls > 1) {
        throw std::invalid_argument(
            "price query: dest-type class must be 0 (on-net) or 1 "
            "(off-net)");
      }
      query.dest_type = static_cast<workload::DestType>(cls);
      break;
  }
  // Evaluate the model on {proxy, query}: the proxy pins the market's
  // maximum raw distance, so distance-normalized relative costs land on
  // the calibrated scale (a query farther than every calibrated flow
  // raises its own normalizer, exactly as appending it to the full set
  // would).
  workload::FlowSet context("query context");
  context.add(entry.proxy);
  context.add(query);
  const auto expanded = entry.cost_model->expand(context);
  const auto rel = entry.cost_model->relative_costs(expanded);
  // Identity-expanding models keep the query at index 1; dest-type
  // splits each flow in two (on, off), putting the query's sub-flows at
  // 2 and 3 with the class selecting which one.
  const std::size_t at =
      entry.cost == driver::CostKind::DestType ? 2 + cls : 1;
  return rel[at];
}

Quote price_flow(const MarketEntry& entry, const Schedule& schedule, double q,
                 double d, std::size_t cls) {
  const double f = query_relative_cost(entry, q, d, cls);
  // Clamp into the schedule's overall span first: past either end, gaps
  // to every tier grow by the same far-away offset and can round equal,
  // which would hand a very far flow the cheapest tier. Inside the span
  // the clamp is the identity, so no in-range answer moves.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const TierInfo& tier : schedule.tiers) {
    lo = std::min(lo, tier.rel_cost_lo);
    hi = std::max(hi, tier.rel_cost_hi);
  }
  const double at = std::clamp(f, lo, hi);
  std::size_t best = 0;
  double best_gap = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < schedule.tiers.size(); ++t) {
    const TierInfo& tier = schedule.tiers[t];
    const double gap =
        std::max({tier.rel_cost_lo - at, at - tier.rel_cost_hi, 0.0});
    if (gap < best_gap) {
      best_gap = gap;
      best = t;
      if (gap == 0.0) break;  // first containing tier wins
    }
  }
  return {best, schedule.tiers[best].price, f};
}

Quote requote_flow(const MarketEntry& entry, const Schedule& schedule,
                   std::size_t flow) {
  if (flow >= schedule.tier_of_flow.size()) {
    throw std::invalid_argument(
        "requote: flow index " + std::to_string(flow) +
        " out of range for market of " +
        std::to_string(schedule.tier_of_flow.size()) + " flows");
  }
  const std::size_t tier = schedule.tier_of_flow[flow];
  return {tier, schedule.tiers[tier].price, entry.market.relative_costs()[flow]};
}

}  // namespace manytiers::serve
