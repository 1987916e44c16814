#include "pricing/scenario.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace manytiers::pricing {

// Lazily filled baseline profits. The flag makes the first computation a
// once-only critical section; afterwards reads are plain loads of
// immutable doubles. Copies of a Market share the cache (shared_ptr), so
// priming any copy primes them all.
struct Market::ProfitCache {
  std::once_flag once;
  double blended = 0.0;
  double maximum = 0.0;
};

Market Market::calibrate(const workload::FlowSet& flows,
                         const DemandSpec& demand_spec,
                         const cost::CostModel& cost_model,
                         double blended_price) {
  if (flows.empty()) {
    throw std::invalid_argument("Market::calibrate: empty flow set");
  }
  if (!(blended_price > 0.0)) {
    throw std::invalid_argument("Market::calibrate: blended price must be > 0");
  }
  static obs::Counter& calibrations =
      obs::Registry::instance().counter("market.calibrations");
  calibrations.add();
  const obs::Span span("market.calibrate",
                       obs::trace_args("flows", flows.size()));
  Market m;
  m.spec_ = demand_spec;
  m.blended_price_ = blended_price;
  m.flows_ = cost_model.expand(flows);
  m.relative_costs_ = cost_model.relative_costs(m.flows_);
  m.classes_ = cost_model.class_of_flows(m.flows_);
  if (m.relative_costs_.size() != m.flows_.size() ||
      m.classes_.size() != m.flows_.size()) {
    throw std::logic_error("Market::calibrate: cost model size mismatch");
  }
  const auto demands = m.flows_.demands();

  switch (demand_spec.kind) {
    case demand::DemandKind::ConstantElasticity: {
      demand::CedModel model(demand_spec.alpha);
      const auto fit = model.fit_valuations(demands, blended_price);
      m.valuations_ = fit.valuations;
      m.gamma_ =
          model.fit_gamma(m.valuations_, m.relative_costs_, blended_price);
      m.ced_ = model;
      break;
    }
    case demand::DemandKind::Logit: {
      const auto fit = demand::LogitModel::fit_valuations(
          demands, blended_price, demand_spec.no_purchase_share,
          demand_spec.alpha);
      demand::LogitModel model(demand_spec.alpha, fit.market_size);
      m.valuations_ = fit.valuations;
      m.gamma_ =
          model.fit_gamma(m.valuations_, m.relative_costs_, blended_price);
      m.logit_ = model;
      break;
    }
  }
  m.costs_.resize(m.relative_costs_.size());
  for (std::size_t i = 0; i < m.costs_.size(); ++i) {
    m.costs_[i] = m.gamma_ * m.relative_costs_[i];
  }
  m.profit_cache_ = std::make_shared<ProfitCache>();
  return m;
}

const Market::ProfitCache& Market::primed_cache() const {
  if (!profit_cache_) {
    throw std::logic_error("Market: baseline profits of an uncalibrated market");
  }
  // lookups - fills = cache hits; the sweep paths should show fills ==
  // calibrations (each market primes once) and lookups well above that.
  static obs::Counter& lookups =
      obs::Registry::instance().counter("market.profit_cache_lookups");
  static obs::Counter& fills =
      obs::Registry::instance().counter("market.profit_cache_fills");
  lookups.add();
  std::call_once(profit_cache_->once, [this] {
    fills.add();
    switch (spec_.kind) {
      case demand::DemandKind::ConstantElasticity: {
        const std::vector<double> prices(size(), blended_price_);
        profit_cache_->blended = ced_->total_profit(valuations_, costs_, prices);
        double total = 0.0;
        for (std::size_t i = 0; i < size(); ++i) {
          total += ced_->potential_profit(valuations_[i], costs_[i]);
        }
        profit_cache_->maximum = total;
        break;
      }
      case demand::DemandKind::Logit: {
        const std::vector<double> prices(size(), blended_price_);
        profit_cache_->blended =
            logit_->total_profit(valuations_, costs_, prices);
        profit_cache_->maximum =
            logit_->optimal_prices(valuations_, costs_).profit;
        break;
      }
    }
  });
  return *profit_cache_;
}

double Market::blended_profit() const { return primed_cache().blended; }

double Market::max_profit() const { return primed_cache().maximum; }

std::size_t Market::cost_class_count() const {
  if (classes_.empty()) return 0;
  return *std::max_element(classes_.begin(), classes_.end()) + 1;
}

const demand::CedModel& Market::ced() const {
  if (!ced_) {
    throw std::logic_error("Market::ced: market uses the logit demand model");
  }
  return *ced_;
}

const demand::LogitModel& Market::logit() const {
  if (!logit_) {
    throw std::logic_error("Market::logit: market uses the CED demand model");
  }
  return *logit_;
}

}  // namespace manytiers::pricing
