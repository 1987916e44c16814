// Fill-time scaling curves for the bundling DP kernel: the naive
// O(n^2 B) reference (fill_dp_tables_naive) vs the production fill
// (fill_dp_tables), whose probe passes on these tie-free markets so it
// runs the divide-and-conquer O(n B log n) path, over a grid of market
// sizes and bundle counts for both paper objectives. Every fill is
// serial.
//
// Modes:
//   bench_dp_scaling                 both fills, speedup table, and a
//                                    self-gate: exits 1 if the fast path
//                                    is not >= 3x at the largest quick
//                                    config or the two fills' tables are
//                                    not byte-identical.
//   bench_dp_scaling --kernel naive  one fill only, kernel-free
//   bench_dp_scaling --kernel dc     BENCH_JSON names (dp_fill_ced_n...),
//                                    so tools/bench_diff.py can compare
//                                    a naive log against a dc log
//                                    key-by-key (--min-speedup gate in
//                                    tools/check.sh).
//   --full                           adds n in {50k, 100k} and B = 32;
//                                    requires >= 5x at n=50k B=10.
#include "bench_common.hpp"

#include <cstring>
#include <string>
#include <vector>

#include "bundling/dp_kernel.hpp"
#include "bundling/objectives.hpp"
#include "util/rng.hpp"

namespace {

using namespace manytiers;

struct Instance {
  std::vector<double> v, c;
};

Instance random_instance(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  Instance inst;
  inst.v.reserve(n);
  inst.c.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.v.push_back(rng.uniform(0.5, 3.0));
    inst.c.push_back(rng.uniform(0.2, 5.0));
  }
  return inst;
}

bool tables_identical(const bundling::DpTables& a,
                      const bundling::DpTables& b) {
  return a.n == b.n && a.b_max == b.b_max &&
         std::memcmp(a.best.data(), b.best.data(),
                     a.best.size() * sizeof(double)) == 0 &&
         std::memcmp(a.split.data(), b.split.data(),
                     a.split.size() * sizeof(std::uint32_t)) == 0;
}

// Naive fills past n=50k x B=10 (2.5e10 candidate evals, minutes of
// wall time) would run for the better part of an hour; skip the
// reference beyond that and log the omission (bench logs must not
// silently pretend the naive curve covers the full grid). The budget is
// set just above the n=50k B=10 config because that is the acceptance
// measurement for the dc kernel's >= 5x full-mode gate.
constexpr double kMaxNaiveEvals = 2.6e10;

struct Config {
  std::size_t n;
  std::size_t b;
};

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  const char* forced_kernel = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      forced_kernel = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--full] [--kernel naive|dc]\n";
      return 2;
    }
  }
  const bool run_naive = forced_kernel == nullptr ||
                         std::strcmp(forced_kernel, "naive") == 0;
  const bool run_dc =
      forced_kernel == nullptr || std::strcmp(forced_kernel, "dc") == 0;
  if (!run_naive && !run_dc) {
    std::cerr << "unknown kernel '" << forced_kernel << "'\n";
    return 2;
  }

  bench::header("DP kernel scaling — naive vs divide-and-conquer fill",
                "Interval-DP table fill times over market size and bundle "
                "count for the CED and logit objectives.");

  std::vector<Config> configs{{1000, 4}, {1000, 10}, {10000, 4}, {10000, 10}};
  if (full) {
    configs.push_back({1000, 32});
    configs.push_back({10000, 32});
    for (const std::size_t n : {50000u, 100000u}) {
      for (const std::size_t b : {4u, 10u, 32u}) configs.push_back({n, b});
    }
  }

  bool ok = true;
  double speedup_quick_gate = 0.0;  // n=10000, B=10
  double speedup_full_gate = 0.0;   // n=50000, B=10 (acceptance criterion)

  for (const char* obj_name : {"ced", "logit"}) {
    const bool is_ced = std::strcmp(obj_name, "ced") == 0;
    std::cout << (is_ced ? "Constant Elasticity Demand objective:\n"
                         : "Logit Demand objective:\n");
    util::TextTable table({"n  B", "naive ms", "dc ms", "speedup"});
    for (const auto& cfg : configs) {
      const auto inst = random_instance(42 + cfg.n, cfg.n);
      const auto ced = is_ced
                           ? bundling::make_ced_objective(inst.v, inst.c, 1.6)
                           : bundling::CedObjective{};
      const auto logit =
          is_ced ? bundling::LogitObjective{}
                 : bundling::make_logit_objective(inst.v, inst.c, 1.1);

      const auto fill = [&](bool naive) {
        if (naive) {
          return is_ced ? bundling::fill_dp_tables_naive(cfg.n, cfg.b, ced)
                        : bundling::fill_dp_tables_naive(cfg.n, cfg.b, logit);
        }
        return is_ced ? bundling::fill_dp_tables(cfg.n, cfg.b, ced)
                      : bundling::fill_dp_tables(cfg.n, cfg.b, logit);
      };

      const double naive_evals = static_cast<double>(cfg.n) *
                                 static_cast<double>(cfg.n) *
                                 static_cast<double>(cfg.b);
      const bool naive_feasible = naive_evals <= kMaxNaiveEvals;
      // Big naive fills take minutes; one rep is plenty at that scale.
      const bench::TimingOptions heavy{.warmup = 0, .reps = 1};
      const bench::TimingOptions light{.warmup = 1, .reps = 3};
      const std::string suffix = std::string("_") + obj_name + "_n" +
                                 std::to_string(cfg.n) + "_b" +
                                 std::to_string(cfg.b);
      // Forced single-kernel runs use kernel-free names so naive and dc
      // logs share keys for bench_diff.py.
      const bool suffix_kernel = forced_kernel == nullptr;

      double naive_ms = 0.0;
      double dc_ms = 0.0;
      bundling::DpTables naive_tables, dc_tables;
      if (run_naive) {
        if (!naive_feasible) {
          std::cout << "  n=" << cfg.n << " B=" << cfg.b
                    << ": naive skipped (" << naive_evals
                    << " evals exceeds budget)\n";
        } else {
          naive_ms = bench::run_timed(
              std::string("dp_fill") + suffix +
                  (suffix_kernel ? "_naive" : ""),
              cfg.n, 1,
              [&] { naive_tables = fill(true); },
              naive_evals > 1e9 ? heavy : light);
        }
      }
      if (run_dc) {
        dc_ms = bench::run_timed(
            std::string("dp_fill") + suffix + (suffix_kernel ? "_dc" : ""),
            cfg.n, 1,
            [&] { dc_tables = fill(false); },
            light);
      }

      if (run_naive && run_dc && naive_feasible) {
        if (!tables_identical(naive_tables, dc_tables)) {
          std::cout << "  ERROR: kernel outputs differ at n=" << cfg.n
                    << " B=" << cfg.b << " (" << obj_name << ")\n";
          ok = false;
        }
        const double speedup = dc_ms > 0.0 ? naive_ms / dc_ms : 0.0;
        table.add_row(std::to_string(cfg.n) + "  " + std::to_string(cfg.b),
                      {naive_ms, dc_ms, speedup}, 2);
        if (is_ced && cfg.n == 10000 && cfg.b == 10) {
          speedup_quick_gate = speedup;
        }
        if (is_ced && cfg.n == 50000 && cfg.b == 10) {
          speedup_full_gate = speedup;
        }
      } else if (run_dc) {
        table.add_row(std::to_string(cfg.n) + "  " + std::to_string(cfg.b),
                      {naive_ms, dc_ms, 0.0}, 2);
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  if (run_naive && run_dc) {
    std::cout << "Gate: speedup at n=10000 B=10 (CED) = "
              << util::format_double(speedup_quick_gate, 2)
              << "x (require >= 3x)\n";
    if (speedup_quick_gate < 3.0) ok = false;
    if (full) {
      std::cout << "Gate: speedup at n=50000 B=10 (CED) = "
                << util::format_double(speedup_full_gate, 2)
                << "x (require >= 5x)\n";
      if (speedup_full_gate < 5.0) ok = false;
    }
    std::cout << (ok ? "All kernel outputs byte-identical; speedup gates "
                       "passed.\n"
                     : "ERROR: gate failure (see above).\n");
  }
  return ok ? 0 : 1;
}
