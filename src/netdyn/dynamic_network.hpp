// DynamicNetwork: a backbone under a stream of topology updates, with
// incrementally maintained all-pairs shortest paths.
//
// Wraps a topology::Network seed with an update log (link reweighs,
// link up/down, PoP add/remove) and a monotonically increasing topology
// epoch. Every applied batch advances the epoch by one and returns a
// DistanceDelta naming exactly the (src, dst) pairs whose shortest-path
// distance changed — the handle the re-cost, market-invalidation, and
// serve-requote layers key off.
//
// apply() maintains the distance matrix by batched Ramalingam–Reps-style
// repair. Per source, edge changes are classified into increases
// (reweigh up, link down, PoP remove) and decreases (reweigh down, link
// up, PoP add); sources whose shortest-path tree touches no changed edge
// are skipped in O(batch). For an affected source, the invalidation cone
// — the pred-tree descendants of vertices whose tree edge lengthened —
// is reset to kUnreachable and repaired by a label-correcting Dijkstra
// seeded from the cone boundary and the decreased edges.
//
// scratch_distances() is the reference: every row from scratch with the
// static Dijkstra (O(n * m log n)). Repair lands on the same bits: with
// non-negative weights the distance vector is the unique fixed point of
// d[v] = min_u(d[u] + w_uv) under IEEE rounding (addition is monotone,
// every relaxation evaluates the same left-to-right sum), so any repair
// that converges to the fixed point equals a from-scratch run
// bit-for-bit. Tree (predecessor) choice affects only how much work
// repair does, never the values.
//
// Removed PoPs are tombstones: the id survives, incident links drop, and
// the PoP's whole matrix row — including the diagonal — is pinned to
// kUnreachable by convention. Added PoPs grow the matrix; their row is
// filled by a fresh single-source run.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "netdyn/update.hpp"
#include "topology/dijkstra.hpp"
#include "topology/graph.hpp"

namespace manytiers::netdyn {

// What one applied batch changed: the exact set of ordered (src, dst)
// pairs whose distance-matrix cell holds a different value than before,
// sorted by (src, dst). Cells that exist only after a PoP addition count
// as changed when finite (their before-value is kUnreachable by
// convention).
struct DistanceDelta {
  std::uint64_t epoch = 0;      // epoch after the batch
  std::size_t pop_count = 0;    // matrix dimension after the batch
  std::vector<std::pair<topology::PopId, topology::PopId>> changed;

  bool empty() const { return changed.empty(); }
};

class DynamicNetwork {
 public:
  explicit DynamicNetwork(const topology::Network& base);

  std::uint64_t epoch() const { return epoch_; }

  // Vertex-id space size (tombstones included) — the distance matrix
  // dimension.
  std::size_t pop_count() const { return pops_.size(); }
  std::size_t alive_count() const;
  bool alive(topology::PopId id) const;
  const topology::Pop& pop(topology::PopId id) const;
  // Alive PoPs only; tombstoned names are free for re-use by PopAdd
  // (which allocates a fresh id).
  std::optional<topology::PopId> find_pop(std::string_view name) const;
  std::size_t link_count() const { return links_.size(); }
  bool has_link(topology::PopId a, topology::PopId b) const;

  // The maintained all-pairs matrix. Rows of tombstoned PoPs are all
  // kUnreachable (diagonal included).
  const topology::DistanceMatrix& distances() const { return dist_; }

  // Apply one batch atomically: names resolve against the pre-batch
  // state as each op executes in order, the epoch advances once, and the
  // delta covers the batch's net effect. Throws std::invalid_argument on
  // an invalid op (unknown name, duplicate link, reweigh of a missing
  // link, ...) leaving the network unchanged.
  DistanceDelta apply(std::span<const NetworkUpdate> batch);
  DistanceDelta apply(const NetworkUpdate& update) {
    return apply(std::span<const NetworkUpdate>(&update, 1));
  }

  // Reference check: recompute the matrix from scratch with the static
  // Dijkstra and the tombstone-row convention. Equals distances()
  // bit-for-bit after every apply.
  topology::DistanceMatrix scratch_distances() const;

 private:
  struct LinkState {
    double length_miles = 0.0;
    double capacity_gbps = 0.0;
  };
  using LinkKey = std::pair<topology::PopId, topology::PopId>;  // a < b

  struct EdgeChange {
    topology::PopId a = 0;
    topology::PopId b = 0;
    double length_miles = 0.0;  // new length (decreases); unused for pure
                                // removals
  };

  void rebuild_adjacency();
  void repair_row(topology::PopId source,
                  std::span<const EdgeChange> increases,
                  std::span<const EdgeChange> decreases);
  bool row_affected(topology::PopId source,
                    std::span<const EdgeChange> increases,
                    std::span<const EdgeChange> decreases) const;

  std::uint64_t epoch_ = 0;
  std::vector<topology::Pop> pops_;  // tombstones keep their slot
  std::vector<char> alive_;
  std::map<LinkKey, LinkState> links_;  // alive links; ordered => the
                                        // adjacency build order (and so
                                        // the work, not the values) is
                                        // deterministic
  std::vector<std::vector<topology::Network::Edge>> adjacency_;
  topology::DistanceMatrix dist_;
  // Per-source predecessor trees (pred_[s][v] = v for source/unreachable),
  // the state incremental repair consults to find invalidation cones.
  std::vector<std::vector<topology::PopId>> pred_;

  // Repair workspace, reused across sources within a batch.
  std::vector<std::vector<topology::PopId>> children_;
  std::vector<char> in_cone_;
  std::vector<topology::PopId> cone_;
};

}  // namespace manytiers::netdyn
