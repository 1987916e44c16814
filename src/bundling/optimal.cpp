#include "bundling/optimal.hpp"

#include <limits>
#include <stdexcept>

#include "bundling/dp_kernel.hpp"
#include "bundling/objectives.hpp"

namespace manytiers::bundling {

namespace {

void search_partitions(std::size_t n, std::size_t max_bundles, std::size_t i,
                       Bundling& current,
                       const std::function<double(const Bundling&)>& profit,
                       double& best_value, Bundling& best) {
  if (i == n) {
    const double value = profit(current);
    if (value > best_value) {
      best_value = value;
      best = current;
    }
    return;
  }
  // Flow i joins an existing bundle... (index loop: recursion may grow
  // `current` and invalidate iterators, but indices below `existing`
  // stay stable because deeper frames restore what they add)
  const std::size_t existing = current.size();
  for (std::size_t b = 0; b < existing; ++b) {
    current[b].push_back(i);
    search_partitions(n, max_bundles, i + 1, current, profit, best_value, best);
    current[b].pop_back();
  }
  // ...or opens a new one (canonical order avoids duplicate partitions).
  if (current.size() < max_bundles) {
    current.push_back({i});
    search_partitions(n, max_bundles, i + 1, current, profit, best_value, best);
    current.pop_back();
  }
}

}  // namespace

Bundling exhaustive_optimal(
    std::size_t n_flows, std::size_t max_bundles,
    const std::function<double(const Bundling&)>& profit) {
  if (n_flows == 0) throw std::invalid_argument("exhaustive_optimal: no flows");
  if (n_flows > 14) {
    throw std::invalid_argument(
        "exhaustive_optimal: refusing n > 14 (exponential search); use the "
        "interval DP instead");
  }
  if (max_bundles == 0) {
    throw std::invalid_argument("exhaustive_optimal: need at least one bundle");
  }
  Bundling current, best;
  double best_value = -std::numeric_limits<double>::infinity();
  search_partitions(n_flows, max_bundles, 0, current, profit, best_value, best);
  return best;
}

std::vector<Bundling> ced_optimal_series(std::span<const double> valuations,
                                         std::span<const double> costs,
                                         double alpha,
                                         std::size_t max_bundles) {
  const auto obj = make_ced_objective(valuations, costs, alpha);
  return interval_dp_series(obj.ps.order, max_bundles, obj);
}

std::vector<Bundling> logit_optimal_series(std::span<const double> valuations,
                                           std::span<const double> costs,
                                           double alpha,
                                           std::size_t max_bundles) {
  const auto obj = make_logit_objective(valuations, costs, alpha);
  return interval_dp_series(obj.ps.order, max_bundles, obj);
}

}  // namespace manytiers::bundling
