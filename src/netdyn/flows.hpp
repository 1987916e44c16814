// Delta propagation, layer 1: from changed distance-matrix cells to
// re-costed flows.
//
// A topology-bound flow set remembers which (src, dst) PoP pair each flow
// rides and the frozen epoch-0 moment-calibration transform
// (workload::TopologyBinding). Re-costing a flow is then a pure function
// of the current distance matrix: calibrated = transform(raw), with a
// fixed finite penalty distance substituted when the pair became
// unroutable. Because generation applied the exact same pow-then-scale
// operations, a flow whose raw distance is unchanged re-costs to the
// identical bits — so updating only the flows named by a DistanceDelta
// equals a full re-cost of every flow, byte for byte.
//
// The transform is deliberately frozen rather than refit: refitting the
// CV-matching power against post-update distances would reprice every
// flow after any change, which is both economically wrong (the tariff was
// calibrated when the contract was struck) and the end of incrementality.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "driver/grid.hpp"
#include "netdyn/dynamic_network.hpp"
#include "topology/dijkstra.hpp"
#include "workload/flowset.hpp"
#include "workload/generators.hpp"

namespace manytiers::netdyn {

class FlowRecoster {
 public:
  explicit FlowRecoster(workload::TopologyBinding binding);

  const workload::TopologyBinding& binding() const { return binding_; }

  // The calibrated distance for a raw backbone distance (kUnreachable
  // maps to the binding's penalty distance first).
  double calibrated_distance(double raw_miles) const;

  // Update exactly the flows riding a pair named in `delta`, against the
  // current matrix. Returns the number of flows whose stored distance
  // actually changed (bumps the netdyn.recosted_flows counter by it).
  std::size_t recost(workload::FlowSet& flows, const DistanceDelta& delta,
                     const topology::DistanceMatrix& dist) const;

  // Reference path: recompute every flow's distance from the matrix.
  // Returns the number of flows whose distance changed.
  std::size_t recost_all(workload::FlowSet& flows,
                         const topology::DistanceMatrix& dist) const;

 private:
  workload::TopologyBinding binding_;
  // (src << 32 | dst) -> indices of the flows riding that pair.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_pair_;
};

// The dynamic-delta core GridSession and serve::DynamicState share: a
// grid's flow sets over the live Internet2 backbone. Each dataset's flows
// generate once at the grid's base parameters (at epoch 0 they equal
// generate_dataset's bit for bit); the network-backed ones keep their
// topology binding, so an update batch re-costs exactly the flows on the
// pairs whose distance changed. Consumers rebuild what the dirty
// datasets feed: report cells, or serve market entries.
class DynamicFlows {
 public:
  explicit DynamicFlows(driver::ExperimentGrid grid);

  const driver::ExperimentGrid& grid() const { return grid_; }
  const DynamicNetwork& network() const { return net_; }
  const std::vector<workload::FlowSet>& flows() const { return flows_; }

  struct Delta {
    DistanceDelta distances;
    std::size_t recosted_flows = 0;
    std::vector<std::size_t> dirty;  // datasets whose flows repriced
  };

  // Advance the network by one batch and re-cost the bound flows the
  // distance delta names. Throws std::invalid_argument on an invalid
  // batch before anything changes.
  Delta apply(std::span<const NetworkUpdate> batch);

  // The recompute-everything reference: scratch all-pairs Dijkstra, then
  // every bound flow re-costed. Equals flows() after every apply.
  std::vector<workload::FlowSet> scratch_flows() const;

 private:
  driver::ExperimentGrid grid_;
  DynamicNetwork net_;
  std::vector<workload::FlowSet> flows_;  // one per grid dataset
  // Engaged for network-backed datasets only (index-aligned with flows_).
  std::vector<std::optional<FlowRecoster>> recosters_;
};

}  // namespace manytiers::netdyn
