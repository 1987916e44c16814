#include "bundling/dp_kernel.hpp"

namespace manytiers::bundling {

namespace dp_detail {

const DpCounters& dp_counters() {
  static const DpCounters counters{
      &obs::Registry::instance().counter("bundling.dp_fills"),
      &obs::Registry::instance().counter("bundling.dp_cells"),
      &obs::Registry::instance().counter("bundling.dp_fastpath"),
      &obs::Registry::instance().counter("bundling.dp_fallbacks"),
  };
  return counters;
}

}  // namespace dp_detail

Bundling extract_dp_bundling(const DpTables& t,
                             std::span<const std::size_t> order,
                             std::size_t n_bundles) {
  const std::size_t n = t.n;
  const std::size_t b_cap = std::min({n_bundles, n, t.b_max});
  // More bundles can never hurt (the objective is superadditive), but take
  // the max over b anyway to stay correct for arbitrary segment values.
  std::size_t b_best = 1;
  for (std::size_t b = 2; b <= b_cap; ++b) {
    if (t.best_at(b, n) > t.best_at(b_best, n)) b_best = b;
  }
  Bundling out(b_best);
  std::size_t end = n;
  for (std::size_t b = b_best; b >= 1; --b) {
    const std::size_t start = t.split_at(b, end);
    for (std::size_t r = start; r < end; ++r) {
      out[b - 1].push_back(order[r]);
    }
    end = start;
  }
  return out;
}

}  // namespace manytiers::bundling
