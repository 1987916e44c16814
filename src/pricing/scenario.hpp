// Calibrated market scenarios (paper Fig. 7 and §4.1).
//
// A Market is the output of the paper's "mapping data to models" step:
// starting from observed flows (demand + distance), a demand model, a
// cost model, and the blended rate P0, it solves for the per-flow
// valuations v_i and the cost scale gamma under the assumption that the
// ISP is already rational and profit-maximizing at the blended rate. The
// calibration has a built-in consistency property: re-optimizing a single
// blended bundle recovers exactly P0.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cost/cost.hpp"
#include "demand/ced.hpp"
#include "demand/demand.hpp"
#include "demand/logit.hpp"
#include "workload/flowset.hpp"

namespace manytiers::pricing {

struct DemandSpec {
  demand::DemandKind kind = demand::DemandKind::ConstantElasticity;
  double alpha = 1.1;              // price sensitivity
  double no_purchase_share = 0.2;  // s0 at the blended rate (logit only)
};

class Market {
 public:
  // Calibrate a market from observed flows. The cost model may expand the
  // flow set (destination-type splits flows into on/off-net sub-flows).
  static Market calibrate(const workload::FlowSet& flows,
                          const DemandSpec& demand_spec,
                          const cost::CostModel& cost_model,
                          double blended_price);

  const workload::FlowSet& flows() const { return flows_; }
  std::size_t size() const { return flows_.size(); }
  const DemandSpec& demand_spec() const { return spec_; }
  double blended_price() const { return blended_price_; }

  const std::vector<double>& valuations() const { return valuations_; }
  const std::vector<double>& costs() const { return costs_; }
  const std::vector<double>& relative_costs() const { return relative_costs_; }
  double gamma() const { return gamma_; }
  // Cost class of each flow (for class-aware bundling) and class count.
  const std::vector<std::size_t>& cost_classes() const { return classes_; }
  std::size_t cost_class_count() const;

  // The fitted demand model. Exactly one is engaged, per spec().kind.
  const demand::CedModel& ced() const;
  const demand::LogitModel& logit() const;

  // Baseline profits of the calibrated market, the two invariants every
  // capture evaluation divides by: profit at the blended rate P0 and
  // profit under per-flow pricing (both O(n); the logit maximum runs a
  // price solve). Computed lazily on first use, then cached — thread-safe
  // via std::call_once, and shared across copies of the market (the
  // calibrated state they derive from is immutable).
  double blended_profit() const;
  double max_profit() const;

 private:
  Market() = default;

  struct ProfitCache;
  const ProfitCache& primed_cache() const;

  workload::FlowSet flows_{"uncalibrated"};
  DemandSpec spec_;
  double blended_price_ = 0.0;
  std::vector<double> valuations_;
  std::vector<double> relative_costs_;
  std::vector<double> costs_;
  double gamma_ = 0.0;
  std::vector<std::size_t> classes_;
  std::optional<demand::CedModel> ced_;
  std::optional<demand::LogitModel> logit_;
  std::shared_ptr<ProfitCache> profit_cache_;  // created by calibrate()
};

}  // namespace manytiers::pricing
