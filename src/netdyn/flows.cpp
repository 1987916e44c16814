#include "netdyn/flows.hpp"

#include <stdexcept>

#include "obs/registry.hpp"
#include "topology/internet2.hpp"

namespace manytiers::netdyn {

namespace {

std::uint64_t pair_key(topology::PopId src, topology::PopId dst) {
  return (std::uint64_t(src) << 32) | std::uint64_t(dst);
}

obs::Counter& recosted_counter() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("netdyn.recosted_flows");
  return counter;
}

}  // namespace

FlowRecoster::FlowRecoster(workload::TopologyBinding binding)
    : binding_(std::move(binding)) {
  if (!(binding_.unreachable_raw_miles > 0.0)) {
    throw std::invalid_argument(
        "FlowRecoster: binding needs a positive unreachable penalty");
  }
  for (std::size_t i = 0; i < binding_.pairs.size(); ++i) {
    const auto [src, dst] = binding_.pairs[i];
    if (src >= (std::uint64_t(1) << 32) || dst >= (std::uint64_t(1) << 32)) {
      throw std::invalid_argument("FlowRecoster: PoP id out of range");
    }
    by_pair_[pair_key(src, dst)].push_back(i);
  }
}

double FlowRecoster::calibrated_distance(double raw_miles) const {
  if (raw_miles == topology::kUnreachable) {
    raw_miles = binding_.unreachable_raw_miles;
  }
  return binding_.distance.apply(raw_miles);
}

std::size_t FlowRecoster::recost(workload::FlowSet& flows,
                                 const DistanceDelta& delta,
                                 const topology::DistanceMatrix& dist) const {
  if (flows.size() != binding_.pairs.size()) {
    throw std::invalid_argument("FlowRecoster::recost: flow count mismatch");
  }
  std::size_t changed = 0;
  for (const auto& [src, dst] : delta.changed) {
    const auto it = by_pair_.find(pair_key(src, dst));
    if (it == by_pair_.end()) continue;
    const double calibrated = calibrated_distance(dist(src, dst));
    for (const std::size_t i : it->second) {
      if (flows[i].distance_miles != calibrated) {
        flows.set_distance(i, calibrated);
        ++changed;
      }
    }
  }
  recosted_counter().add(changed);
  return changed;
}

std::size_t FlowRecoster::recost_all(workload::FlowSet& flows,
                                     const topology::DistanceMatrix& dist)
    const {
  if (flows.size() != binding_.pairs.size()) {
    throw std::invalid_argument(
        "FlowRecoster::recost_all: flow count mismatch");
  }
  std::size_t changed = 0;
  for (std::size_t i = 0; i < binding_.pairs.size(); ++i) {
    const auto [src, dst] = binding_.pairs[i];
    const double calibrated = calibrated_distance(dist(src, dst));
    if (flows[i].distance_miles != calibrated) {
      flows.set_distance(i, calibrated);
      ++changed;
    }
  }
  return changed;
}

DynamicFlows::DynamicFlows(driver::ExperimentGrid grid)
    : grid_(std::move(grid)), net_(topology::internet2_network()) {
  const workload::GeneratorOptions gen{.seed = grid_.base.seed,
                                       .n_flows = grid_.base.n_flows};
  flows_.reserve(grid_.datasets.size());
  recosters_.reserve(grid_.datasets.size());
  for (const auto kind : grid_.datasets) {
    if (kind == workload::DatasetKind::Internet2) {
      // Epoch-0 distances equal all_pairs_distances(backbone) bit-for-bit
      // (same relaxation core), so these flows match generate_dataset's.
      workload::TopologyBinding binding;
      flows_.push_back(workload::generate_internet2(
          gen, topology::internet2_network(), net_.distances(), &binding));
      recosters_.emplace_back(FlowRecoster(std::move(binding)));
    } else {
      flows_.push_back(workload::generate_dataset(kind, gen));
      recosters_.emplace_back(std::nullopt);
    }
  }
}

DynamicFlows::Delta DynamicFlows::apply(std::span<const NetworkUpdate> batch) {
  Delta out;
  out.distances = net_.apply(batch);
  if (out.distances.empty()) return out;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (!recosters_[i]) continue;
    const std::size_t changed =
        recosters_[i]->recost(flows_[i], out.distances, net_.distances());
    out.recosted_flows += changed;
    if (changed != 0) out.dirty.push_back(i);
  }
  return out;
}

std::vector<workload::FlowSet> DynamicFlows::scratch_flows() const {
  const topology::DistanceMatrix dist = net_.scratch_distances();
  std::vector<workload::FlowSet> flows = flows_;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (recosters_[i]) recosters_[i]->recost_all(flows[i], dist);
  }
  return flows;
}

}  // namespace manytiers::netdyn
