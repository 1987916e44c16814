#include "driver/grid.hpp"

#include <algorithm>
#include <iostream>
#include <span>
#include <stdexcept>

#include "json/flat_json.hpp"
#include "util/cli.hpp"

namespace manytiers::driver {

namespace {

template <typename Enum, typename ToString>
Enum enum_from_string(std::string_view text, std::span<const Enum> candidates,
                      const ToString& to_str, const char* what) {
  for (const Enum e : candidates) {
    if (to_str(e) == text) return e;
  }
  throw std::invalid_argument(std::string("unknown ") + what + ": \"" +
                              std::string(text) + "\"");
}

constexpr workload::DatasetKind kDatasetKinds[] = {
    workload::DatasetKind::EuIsp, workload::DatasetKind::Cdn,
    workload::DatasetKind::Internet2};
constexpr demand::DemandKind kDemandKinds[] = {
    demand::DemandKind::ConstantElasticity, demand::DemandKind::Logit};
constexpr CostKind kCostKinds[] = {CostKind::Linear, CostKind::Concave,
                                   CostKind::Regional, CostKind::DestType};
constexpr pricing::Strategy kStrategies[] = {
    pricing::Strategy::Optimal,        pricing::Strategy::DemandWeighted,
    pricing::Strategy::CostWeighted,   pricing::Strategy::ProfitWeighted,
    pricing::Strategy::CostDivision,   pricing::Strategy::IndexDivision,
    pricing::Strategy::ClassAwareProfitWeighted};

template <typename T>
void require_axis(const std::vector<T>& axis, const char* name) {
  if (axis.empty()) {
    throw std::invalid_argument(std::string("grid: empty axis \"") + name +
                                "\"");
  }
  for (std::size_t i = 0; i < axis.size(); ++i) {
    for (std::size_t j = i + 1; j < axis.size(); ++j) {
      if (axis[i] == axis[j]) {
        throw std::invalid_argument(std::string("grid: duplicate entry in "
                                                "axis \"") +
                                    name + "\" (duplicate cells)");
      }
    }
  }
}

}  // namespace

std::string_view to_string(CostKind kind) {
  switch (kind) {
    case CostKind::Linear: return "linear";
    case CostKind::Concave: return "concave";
    case CostKind::Regional: return "regional";
    case CostKind::DestType: return "dest-type";
  }
  throw std::invalid_argument("unknown cost kind");
}

std::string_view to_string(demand::DemandKind kind) {
  switch (kind) {
    case demand::DemandKind::ConstantElasticity: return "ced";
    case demand::DemandKind::Logit: return "logit";
  }
  throw std::invalid_argument("unknown demand kind");
}

std::string_view to_string(SweepAxis::Kind kind) {
  switch (kind) {
    case SweepAxis::Kind::None: return "none";
    case SweepAxis::Kind::Alpha: return "alpha";
    case SweepAxis::Kind::BlendedPrice: return "blended-price";
    case SweepAxis::Kind::NoPurchaseShare: return "s0";
  }
  throw std::invalid_argument("unknown sweep axis");
}

std::unique_ptr<cost::CostModel> make_cost_model(CostKind kind, double theta) {
  switch (kind) {
    case CostKind::Linear: return cost::make_linear_cost(theta);
    case CostKind::Concave: return cost::make_concave_cost(theta);
    case CostKind::Regional: return cost::make_regional_cost(theta);
    case CostKind::DestType: return cost::make_dest_type_cost(theta);
  }
  throw std::invalid_argument("unknown cost kind");
}

std::string cell_key(const GridCell& cell) {
  std::string key;
  key += to_string(cell.dataset);
  key += '/';
  key += to_string(cell.demand);
  key += '/';
  key += to_string(cell.cost);
  key += '/';
  key += to_string(cell.strategy);
  return key;
}

GridCell parse_cell_key(std::string_view key) {
  std::string_view parts[4];
  std::size_t start = 0;
  for (std::size_t p = 0; p < 4; ++p) {
    const std::size_t slash = key.find('/', start);
    const bool last = p == 3;
    if (last != (slash == std::string_view::npos)) {
      throw std::invalid_argument("cell key must have four '/'-separated "
                                  "parts: \"" + std::string(key) + "\"");
    }
    parts[p] = key.substr(start, last ? std::string_view::npos : slash - start);
    start = slash + 1;
  }
  GridCell cell;
  cell.dataset = enum_from_string<workload::DatasetKind>(
      parts[0], kDatasetKinds, [](auto e) { return workload::to_string(e); },
      "dataset");
  cell.demand = enum_from_string<demand::DemandKind>(
      parts[1], kDemandKinds,
      [](auto e) { return to_string(e); }, "demand kind");
  cell.cost = enum_from_string<CostKind>(
      parts[2], kCostKinds, [](auto e) { return to_string(e); }, "cost kind");
  cell.strategy = enum_from_string<pricing::Strategy>(
      parts[3], kStrategies, [](auto e) { return pricing::to_string(e); },
      "strategy");
  return cell;
}

void validate_grid(const ExperimentGrid& grid) {
  require_axis(grid.datasets, "datasets");
  require_axis(grid.demand_kinds, "demand_kinds");
  require_axis(grid.cost_kinds, "cost_kinds");
  require_axis(grid.strategies, "strategies");
  if (grid.max_bundles == 0) {
    throw std::invalid_argument("grid: max_bundles must be >= 1");
  }
  if (grid.base.n_flows < 2) {
    throw std::invalid_argument("grid: need at least two flows per dataset");
  }
  if (!(grid.base.alpha > 1.0)) {
    throw std::invalid_argument("grid: base alpha must exceed 1 (CED profit "
                                "is unbounded otherwise)");
  }
  if (!(grid.base.blended_price > 0.0)) {
    throw std::invalid_argument("grid: blended price must be positive");
  }
  if (grid.sweep.kind == SweepAxis::Kind::None) {
    if (!grid.sweep.values.empty()) {
      throw std::invalid_argument(
          "grid: sweep values given but sweep kind is none");
    }
  } else {
    require_axis(grid.sweep.values, "sweep.values");
    if (grid.sweep.kind == SweepAxis::Kind::NoPurchaseShare) {
      for (const auto kind : grid.demand_kinds) {
        if (kind != demand::DemandKind::Logit) {
          throw std::invalid_argument(
              "grid: an s0 sweep only exists in the logit model; drop CED "
              "from demand_kinds");
        }
      }
    }
    if (grid.sweep.kind == SweepAxis::Kind::Alpha) {
      for (const double a : grid.sweep.values) {
        if (!(a > 1.0)) {
          throw std::invalid_argument("grid: swept alpha values must exceed 1");
        }
      }
    }
  }
}

std::vector<GridCell> enumerate_cells(const ExperimentGrid& grid) {
  validate_grid(grid);
  std::vector<GridCell> cells;
  cells.reserve(grid.datasets.size() * grid.demand_kinds.size() *
                grid.cost_kinds.size() * grid.strategies.size());
  for (const auto dataset : grid.datasets) {
    for (const auto demand_kind : grid.demand_kinds) {
      for (const auto cost_kind : grid.cost_kinds) {
        for (const auto strategy : grid.strategies) {
          cells.push_back({dataset, demand_kind, cost_kind, strategy});
        }
      }
    }
  }
  return cells;
}

std::size_t points_per_cell(const ExperimentGrid& grid) {
  return grid.sweep.kind == SweepAxis::Kind::None ? 1
                                                  : grid.sweep.values.size();
}

std::string grid_signature(const ExperimentGrid& grid) {
  std::string sig = "v1|" + grid.name + "|ds=";
  for (const auto d : grid.datasets) {
    sig += to_string(d);
    sig += ';';
  }
  sig += "|dem=";
  for (const auto d : grid.demand_kinds) {
    sig += to_string(d);
    sig += ';';
  }
  sig += "|cost=";
  for (const auto c : grid.cost_kinds) {
    sig += to_string(c);
    sig += ';';
  }
  sig += "|strat=";
  for (const auto s : grid.strategies) {
    sig += pricing::to_string(s);
    sig += ';';
  }
  sig += "|B=" + std::to_string(grid.max_bundles);
  sig += "|sweep=" + std::string(to_string(grid.sweep.kind)) + ":";
  for (const double v : grid.sweep.values) {
    sig += json::number_text(v);
    sig += ';';
  }
  sig += "|base=seed:" + std::to_string(grid.base.seed) +
         ",n:" + std::to_string(grid.base.n_flows) +
         ",alpha:" + json::number_text(grid.base.alpha) +
         ",P0:" + json::number_text(grid.base.blended_price) +
         ",theta:" + json::number_text(grid.base.theta) +
         ",s0:" + json::number_text(grid.base.s0);
  return sig;
}

ExperimentGrid smoke_grid() {
  ExperimentGrid grid;
  grid.name = "smoke";
  grid.datasets = {workload::DatasetKind::EuIsp,
                   workload::DatasetKind::Internet2,
                   workload::DatasetKind::Cdn};
  grid.demand_kinds = {demand::DemandKind::ConstantElasticity,
                       demand::DemandKind::Logit};
  grid.cost_kinds = {CostKind::Linear};
  grid.strategies = {pricing::Strategy::Optimal,
                     pricing::Strategy::ProfitWeighted};
  grid.max_bundles = 4;
  grid.base.n_flows = 50;
  return grid;
}

ExperimentGrid default_grid() {
  ExperimentGrid grid;
  grid.name = "default";
  grid.datasets = {workload::DatasetKind::EuIsp,
                   workload::DatasetKind::Internet2,
                   workload::DatasetKind::Cdn};
  grid.demand_kinds = {demand::DemandKind::ConstantElasticity,
                       demand::DemandKind::Logit};
  grid.cost_kinds = {CostKind::Linear};
  grid.strategies = pricing::figure8_strategies();
  grid.max_bundles = 6;
  return grid;
}

ExperimentGrid alpha_sweep_grid() {
  ExperimentGrid grid;
  grid.name = "alpha-sweep";
  grid.datasets = {workload::DatasetKind::EuIsp,
                   workload::DatasetKind::Internet2,
                   workload::DatasetKind::Cdn};
  grid.demand_kinds = {demand::DemandKind::ConstantElasticity,
                       demand::DemandKind::Logit};
  grid.cost_kinds = {CostKind::Linear};
  grid.strategies = {pricing::Strategy::ProfitWeighted};
  grid.max_bundles = 6;
  grid.sweep.kind = SweepAxis::Kind::Alpha;
  grid.sweep.values = {1.05, 1.1, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0};
  return grid;
}

ExperimentGrid costmodels_grid() {
  // The Fig. 10-13 family in one batch: every cost model against the
  // cost-only industry practice and the paper's demand-and-cost
  // recommendation, with Optimal as the upper bound.
  ExperimentGrid grid;
  grid.name = "costmodels";
  grid.datasets = {workload::DatasetKind::EuIsp,
                   workload::DatasetKind::Internet2,
                   workload::DatasetKind::Cdn};
  grid.demand_kinds = {demand::DemandKind::ConstantElasticity,
                       demand::DemandKind::Logit};
  grid.cost_kinds = {CostKind::Linear, CostKind::Concave, CostKind::Regional,
                     CostKind::DestType};
  grid.strategies = {pricing::Strategy::Optimal,
                     pricing::Strategy::CostWeighted,
                     pricing::Strategy::ProfitWeighted};
  grid.max_bundles = 6;
  return grid;
}

ExperimentGrid named_grid(std::string_view name) {
  if (name == "smoke") return smoke_grid();
  if (name == "default") return default_grid();
  if (name == "alpha-sweep") return alpha_sweep_grid();
  if (name == "costmodels") return costmodels_grid();
  throw std::invalid_argument("unknown grid \"" + std::string(name) +
                              "\"; known grids: smoke, default, alpha-sweep, "
                              "costmodels");
}

std::vector<std::string_view> grid_names() {
  return {"smoke", "default", "alpha-sweep", "costmodels"};
}

ExperimentGrid GridChoice::resolve() const {
  ExperimentGrid out = named_grid(grid);
  if (seed_given) out.base.seed = seed;
  if (n_flows != 0) out.base.n_flows = n_flows;
  if (max_bundles != 0) out.max_bundles = max_bundles;
  return out;
}

std::vector<std::string> GridChoice::args() const {
  std::vector<std::string> out{"--grid", grid};
  if (seed_given) out.insert(out.end(), {"--seed", std::to_string(seed)});
  if (n_flows != 0) {
    out.insert(out.end(), {"--n-flows", std::to_string(n_flows)});
  }
  if (max_bundles != 0) {
    out.insert(out.end(), {"--max-bundles", std::to_string(max_bundles)});
  }
  return out;
}

void GridChoice::add_to(cli::Flags& flags) {
  flags.value("--grid", "NAME", "named grid (default \"" + grid + "\")", grid)
      .action("--list-grids", "print the known grid names and exit",
              [] {
                for (const auto name : grid_names()) std::cout << name << '\n';
              })
      .value("--seed", "S", "dataset seed override",
             [this](std::string_view flag, std::string_view text) {
               seed = json::parse_number<std::uint64_t>(text, flag);
               seed_given = true;
             })
      .value("--n-flows", "N", "flows per dataset override", n_flows)
      .value("--max-bundles", "B", "bundle-count ceiling override",
             max_bundles);
}

}  // namespace manytiers::driver
