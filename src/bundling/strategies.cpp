#include "bundling/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace manytiers::bundling {

namespace {

void require_weights(std::span<const double> ws, const char* what) {
  if (ws.empty()) {
    throw std::invalid_argument(std::string(what) + ": no flows");
  }
  for (const double w : ws) {
    if (!(w > 0.0)) {
      throw std::invalid_argument(std::string(what) +
                                  ": weights must be > 0");
    }
  }
}

// Indices sorted by decreasing key, ties broken by index for determinism.
std::vector<std::size_t> sorted_desc(std::span<const double> keys) {
  std::vector<std::size_t> idx(keys.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return keys[a] > keys[b];
  });
  return idx;
}

std::vector<std::size_t> sorted_by_cost(std::span<const double> costs) {
  std::vector<std::size_t> idx(costs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return costs[a] < costs[b];
  });
  return idx;
}

Bundling drop_empty(Bundling b) {
  std::erase_if(b, [](const Bundle& bundle) { return bundle.empty(); });
  return b;
}

// Element b-1 is `at(b)`, for b = 1..max_bundles.
template <class At>
std::vector<Bundling> series(std::size_t max_bundles, const char* what,
                             const At& at) {
  if (max_bundles == 0) {
    throw std::invalid_argument(std::string(what) +
                                ": need at least one bundle");
  }
  std::vector<Bundling> out;
  out.reserve(max_bundles);
  for (std::size_t b = 1; b <= max_bundles; ++b) out.push_back(at(b));
  return out;
}

// Token bucket at every bundle count over one shared traversal order.
std::vector<Bundling> bucket_series(std::span<const double> weights,
                                    std::span<const std::size_t> order,
                                    std::size_t max_bundles) {
  return series(max_bundles, "token_bucket", [&](std::size_t b) {
    return token_bucket_ordered(weights, order, b);
  });
}

std::vector<double> inverse_costs(std::span<const double> costs) {
  require_weights(costs, "cost_weighted");
  std::vector<double> inv(costs.size());
  std::transform(costs.begin(), costs.end(), inv.begin(),
                 [](double c) { return 1.0 / c; });
  return inv;
}

Bundling cost_division_with_cmax(std::span<const double> costs,
                                 std::size_t n_bundles, double cmax) {
  const double width = cmax / double(n_bundles);
  Bundling bundles(n_bundles);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const std::size_t j =
        width > 0.0
            ? std::min(n_bundles - 1, std::size_t(costs[i] / width))
            : 0;
    bundles[j].push_back(i);
  }
  return drop_empty(std::move(bundles));
}

Bundling index_division_ordered(std::span<const std::size_t> idx,
                                std::size_t n_bundles) {
  Bundling bundles(std::min(n_bundles, idx.size()));
  for (std::size_t r = 0; r < idx.size(); ++r) {
    const std::size_t j = r * bundles.size() / idx.size();
    bundles[j].push_back(idx[r]);
  }
  return drop_empty(std::move(bundles));
}

}  // namespace

Bundling token_bucket_ordered(std::span<const double> weights,
                              std::span<const std::size_t> order,
                              std::size_t n_bundles) {
  require_weights(weights, "token_bucket");
  if (order.size() != weights.size()) {
    throw std::invalid_argument("token_bucket: order size mismatch");
  }
  if (n_bundles == 0) {
    throw std::invalid_argument("token_bucket: need at least one bundle");
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<double> budget(n_bundles, total / double(n_bundles));
  Bundling bundles(n_bundles);
  for (const std::size_t i : order) {
    if (i >= weights.size()) {
      throw std::invalid_argument("token_bucket: order index out of range");
    }
    // First bundle that is empty or still has budget. The budget invariant
    // (remaining budget == weight of unplaced flows) guarantees one exists.
    std::size_t j = 0;
    while (j < n_bundles && !bundles[j].empty() && !(budget[j] > 0.0)) ++j;
    if (j == n_bundles) j = n_bundles - 1;  // numeric-roundoff safety net
    bundles[j].push_back(i);
    budget[j] -= weights[i];
    if (budget[j] < 0.0 && j + 1 < n_bundles) {
      budget[j + 1] += budget[j];  // charge the overflow to the next bundle
    }
  }
  return drop_empty(std::move(bundles));
}

std::vector<Bundling> token_bucket_series(std::span<const double> weights,
                                          std::size_t max_bundles) {
  return bucket_series(weights, sorted_desc(weights), max_bundles);
}

std::vector<Bundling> demand_weighted_series(std::span<const double> demands,
                                             std::size_t max_bundles) {
  return token_bucket_series(demands, max_bundles);
}

std::vector<Bundling> cost_weighted_series(std::span<const double> costs,
                                           std::size_t max_bundles) {
  return token_bucket_series(inverse_costs(costs), max_bundles);
}

std::vector<Bundling> profit_weighted_series(
    std::span<const double> potential_profits, std::span<const double> costs,
    std::size_t max_bundles) {
  if (costs.size() != potential_profits.size()) {
    throw std::invalid_argument("profit_weighted: costs size mismatch");
  }
  // Tiers are contiguous cost ranges carrying equal potential profit.
  return bucket_series(potential_profits, sorted_by_cost(costs), max_bundles);
}

std::vector<Bundling> cost_division_series(std::span<const double> costs,
                                           std::size_t max_bundles) {
  require_weights(costs, "cost_division");
  const double cmax = *std::max_element(costs.begin(), costs.end());
  return series(max_bundles, "cost_division", [&](std::size_t b) {
    return cost_division_with_cmax(costs, b, cmax);
  });
}

std::vector<Bundling> index_division_series(std::span<const double> costs,
                                            std::size_t max_bundles) {
  require_weights(costs, "index_division");
  const auto idx = sorted_by_cost(costs);
  return series(max_bundles, "index_division", [&](std::size_t b) {
    return index_division_ordered(idx, b);
  });
}

Bundling class_aware_profit_weighted(
    std::span<const double> potential_profits, std::span<const double> costs,
    std::span<const std::size_t> class_of_flow, std::size_t n_bundles) {
  require_weights(potential_profits, "class_aware_profit_weighted");
  if (class_of_flow.size() != potential_profits.size() ||
      costs.size() != potential_profits.size()) {
    throw std::invalid_argument(
        "class_aware_profit_weighted: class/cost vector size mismatch");
  }
  // Group flow indices by class (classes keep first-seen order).
  std::vector<std::size_t> class_ids;
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < class_of_flow.size(); ++i) {
    const auto it =
        std::find(class_ids.begin(), class_ids.end(), class_of_flow[i]);
    if (it == class_ids.end()) {
      class_ids.push_back(class_of_flow[i]);
      members.emplace_back();
      members.back().push_back(i);
    } else {
      members[std::size_t(it - class_ids.begin())].push_back(i);
    }
  }
  const std::size_t n_classes = class_ids.size();
  if (n_bundles < n_classes) {
    throw std::invalid_argument(
        "class_aware_profit_weighted: need at least one bundle per class");
  }
  // Allocate bundles to classes proportionally to class weight (largest
  // remainder), with at least one bundle per class.
  std::vector<double> class_weight(n_classes, 0.0);
  double total = 0.0;
  for (std::size_t k = 0; k < n_classes; ++k) {
    for (const std::size_t i : members[k]) {
      class_weight[k] += potential_profits[i];
    }
    total += class_weight[k];
  }
  std::vector<std::size_t> alloc(n_classes, 1);
  std::size_t remaining = n_bundles - n_classes;
  std::vector<double> fractional(n_classes);
  for (std::size_t k = 0; k < n_classes; ++k) {
    const double ideal = class_weight[k] / total * double(remaining);
    const auto whole = std::size_t(ideal);
    alloc[k] += whole;
    fractional[k] = ideal - double(whole);
  }
  std::size_t assigned = 0;
  for (const auto a : alloc) assigned += a;
  while (assigned < n_bundles) {
    const std::size_t k = std::size_t(
        std::max_element(fractional.begin(), fractional.end()) -
        fractional.begin());
    ++alloc[k];
    fractional[k] = -1.0;
    ++assigned;
  }
  // Cost-ordered profit-weighted bucket within each class, concatenated.
  Bundling out;
  for (std::size_t k = 0; k < n_classes; ++k) {
    std::vector<double> w, c;
    w.reserve(members[k].size());
    c.reserve(members[k].size());
    for (const std::size_t i : members[k]) {
      w.push_back(potential_profits[i]);
      c.push_back(costs[i]);
    }
    const Bundling local = token_bucket_ordered(w, sorted_by_cost(c), alloc[k]);
    for (const auto& bundle : local) {
      Bundle global;
      global.reserve(bundle.size());
      for (const std::size_t local_i : bundle) {
        global.push_back(members[k][local_i]);
      }
      out.push_back(std::move(global));
    }
  }
  return out;
}

}  // namespace manytiers::bundling
