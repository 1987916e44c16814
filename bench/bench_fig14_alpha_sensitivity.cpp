// Reproduces paper Figure 14: worst-case profit capture at each bundle
// count as the price sensitivity alpha ranges over [1, 10], for all three
// datasets and both demand models (profit-weighted bundling, as in the
// paper's sensitivity analysis). This is the batch driver's alpha-sweep
// grid.
#include "bench_common.hpp"

int main() {
  using namespace manytiers;
  bench::header("Figure 14 — Robustness to price sensitivity alpha",
                "Minimum profit capture over alpha in [1, 10] at each "
                "bundle count (profit-weighted).");

  bench::print_min_capture(driver::run_grid(driver::alpha_sweep_grid()));
  std::cout << "Shape check: even the worst alpha keeps a few bundles "
               "capturing a large share of the headroom — the headline\n"
               "result is not an artifact of a particular elasticity.\n";
  return 0;
}
