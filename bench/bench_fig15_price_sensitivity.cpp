// Reproduces paper Figure 15: worst-case profit capture at each bundle
// count as the starting blended rate P0 ranges over [$5, $30].
#include "bench_common.hpp"

int main() {
  using namespace manytiers;
  bench::header("Figure 15 — Robustness to the blended rate P0",
                "Minimum profit capture over P0 in [5, 30] at each bundle "
                "count (profit-weighted).");

  // Fig. 14's grid with the sweep axis moved from alpha to P0.
  auto grid = driver::alpha_sweep_grid();
  grid.name = "price-sweep";
  grid.sweep = {driver::SweepAxis::Kind::BlendedPrice,
                {5.0, 10.0, 15.0, 20.0, 25.0, 30.0}};
  bench::print_min_capture(driver::run_grid(grid));
  std::cout << "Shape check: capture is insensitive to the blended rate — "
               "under CED the capture series is *exactly* P0-invariant\n"
               "(valuations and costs both rescale with P0), so the minimum "
               "equals the P0 = $20 series of Fig. 8.\n";
  return 0;
}
