// Batch experiment grids (ROADMAP: "multi-dataset batch runner").
//
// An ExperimentGrid is the declarative spec of one evaluation campaign:
// the cross product of datasets x demand models x cost models x bundling
// strategies, each cell evaluated either once at the paper's §4.2.2
// defaults or across one sensitivity axis (alpha, P0, s0 — Figs. 14-16).
// Cells enumerate in a fixed lexicographic order (dataset-major,
// strategy-minor), which is what makes sharded runs mergeable and golden
// reports reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost.hpp"
#include "demand/demand.hpp"
#include "pricing/counterfactual.hpp"
#include "workload/generators.hpp"

namespace manytiers::cli {
class Flags;
}  // namespace manytiers::cli

namespace manytiers::driver {

// Cost model families a grid can request; theta comes from BaseParams.
enum class CostKind { Linear, Concave, Regional, DestType };

std::string_view to_string(CostKind kind);
std::string_view to_string(demand::DemandKind kind);  // "ced" / "logit"
std::unique_ptr<cost::CostModel> make_cost_model(CostKind kind, double theta);

// Sensitivity axis swept inside every cell. None means each cell is a
// single evaluation at the base parameters (min == max in the result).
struct SweepAxis {
  enum class Kind { None, Alpha, BlendedPrice, NoPurchaseShare };
  Kind kind = Kind::None;
  std::vector<double> values;
};

std::string_view to_string(SweepAxis::Kind kind);

// The paper's §4.2.2 defaults; every cell starts from these, and the
// sweep axis (if any) overrides exactly one of them per point.
struct BaseParams {
  std::uint64_t seed = 42;
  std::size_t n_flows = 400;
  double alpha = 1.1;
  double blended_price = 20.0;
  double theta = 0.2;
  double s0 = 0.2;
};

struct ExperimentGrid {
  std::string name = "custom";
  std::vector<workload::DatasetKind> datasets;
  std::vector<demand::DemandKind> demand_kinds;
  std::vector<CostKind> cost_kinds;
  std::vector<pricing::Strategy> strategies;
  std::size_t max_bundles = 6;
  SweepAxis sweep;
  BaseParams base;
};

// One cell: a (dataset, demand, cost, strategy) combination. The sweep
// axis runs inside the cell; a cell's result is a capture envelope.
struct GridCell {
  workload::DatasetKind dataset{};
  demand::DemandKind demand{};
  CostKind cost{};
  pricing::Strategy strategy{};

  bool operator==(const GridCell&) const = default;
};

// "EU ISP/ced/linear/Optimal" — the stable id used in reports and diffs.
std::string cell_key(const GridCell& cell);
GridCell parse_cell_key(std::string_view key);  // throws on unknown parts

// Reject empty axes, duplicate axis entries, max_bundles == 0,
// inconsistent sweep specs (values with None, no values otherwise,
// duplicate values, an s0 sweep over non-logit demand), and degenerate
// base parameters.
void validate_grid(const ExperimentGrid& grid);

// The grid's cells in evaluation order: dataset-major, then demand kind,
// then cost kind, then strategy. Deterministic and complete — the size
// is the product of the four axis sizes. Validates first.
std::vector<GridCell> enumerate_cells(const ExperimentGrid& grid);

// Number of parameter points each cell evaluates (1 for SweepAxis::None).
std::size_t points_per_cell(const ExperimentGrid& grid);

// Canonical encoding of every axis and base parameter. Two runs are
// comparable iff their signatures match; merge_shards and bench_diff
// refuse mismatches.
std::string grid_signature(const ExperimentGrid& grid);

// Named grids for the CLI, the smoke target, and the golden test.
ExperimentGrid smoke_grid();       // 3 datasets x 2 demand x linear, n=50
ExperimentGrid default_grid();     // the full Fig. 8/9 strategy lineup
ExperimentGrid alpha_sweep_grid(); // Fig. 14-shaped robustness envelope
ExperimentGrid costmodels_grid();  // all four cost models (Figs. 10-13)
ExperimentGrid named_grid(std::string_view name);  // throws on unknown
std::vector<std::string_view> grid_names();

// A named grid plus the overrides the CLIs' grid group sets; 0 / unset
// keeps the grid's own value.
struct GridChoice {
  std::string grid = "default";
  std::uint64_t seed = 0;
  bool seed_given = false;
  std::size_t n_flows = 0;
  std::size_t max_bundles = 0;

  // named_grid(grid) with the overrides applied.
  ExperimentGrid resolve() const;
  // The same choice as flags, for a child process.
  std::vector<std::string> args() const;
  // --grid, --list-grids, --seed, --n-flows, --max-bundles.
  void add_to(cli::Flags& flags);
};

}  // namespace manytiers::driver
