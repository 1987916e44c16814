#include "netdyn/dynamic_network.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace manytiers::netdyn {

namespace {

using topology::kUnreachable;
using topology::PopId;

[[noreturn]] void bad_update(const NetworkUpdate& u, const std::string& why) {
  throw std::invalid_argument("DynamicNetwork::apply: " + why + " (op '" +
                              serialize(u) + "')");
}

}  // namespace

DynamicNetwork::DynamicNetwork(const topology::Network& base)
    : pops_(base.pops()) {
  alive_.assign(pops_.size(), 1);
  for (const auto& l : base.links()) {
    const LinkKey key = l.a < l.b ? LinkKey{l.a, l.b} : LinkKey{l.b, l.a};
    links_[key] = LinkState{l.length_miles, l.capacity_gbps};
  }
  rebuild_adjacency();
  const std::size_t n = pops_.size();
  dist_ = topology::DistanceMatrix(n);
  pred_.assign(n, std::vector<PopId>(n, 0));
  for (PopId s = 0; s < n; ++s) {
    topology::shortest_paths_into(adjacency_, s, dist_.row(s), pred_[s]);
  }
}

std::size_t DynamicNetwork::alive_count() const {
  return std::size_t(std::count(alive_.begin(), alive_.end(), char(1)));
}

bool DynamicNetwork::alive(PopId id) const {
  return id < alive_.size() && alive_[id];
}

const topology::Pop& DynamicNetwork::pop(PopId id) const {
  if (id >= pops_.size()) {
    throw std::out_of_range("DynamicNetwork::pop: bad id");
  }
  return pops_[id];
}

std::optional<PopId> DynamicNetwork::find_pop(std::string_view name) const {
  for (PopId i = 0; i < pops_.size(); ++i) {
    if (alive_[i] && pops_[i].name == name) return i;
  }
  return std::nullopt;
}

bool DynamicNetwork::has_link(PopId a, PopId b) const {
  const LinkKey key = a < b ? LinkKey{a, b} : LinkKey{b, a};
  return links_.contains(key);
}

void DynamicNetwork::rebuild_adjacency() {
  adjacency_.assign(pops_.size(), {});
  for (const auto& [key, state] : links_) {
    adjacency_[key.first].push_back({key.second, state.length_miles});
    adjacency_[key.second].push_back({key.first, state.length_miles});
  }
}

topology::DistanceMatrix DynamicNetwork::scratch_distances() const {
  const std::size_t n = pops_.size();
  topology::DistanceMatrix out(n);
  std::vector<PopId> pred(n);
  for (PopId s = 0; s < n; ++s) {
    if (!alive_[s]) continue;  // tombstone row stays all-kUnreachable
    topology::shortest_paths_into(adjacency_, s, out.row(s), pred);
  }
  return out;
}

DistanceDelta DynamicNetwork::apply(std::span<const NetworkUpdate> batch) {
  obs::Registry& registry = obs::Registry::instance();
  static obs::Counter& updates_counter = registry.counter("netdyn.updates");
  static obs::Counter& batches_counter = registry.counter("netdyn.batches");
  static obs::Counter& affected_counter =
      registry.counter("netdyn.affected_vertices");
  static obs::Counter& changed_counter =
      registry.counter("netdyn.changed_pairs");
  const obs::Span span("netdyn.apply",
                       obs::trace_args("updates", batch.size()));

  // Phase A: validate and apply every op on working copies, so a bad op
  // anywhere in the batch leaves the network untouched.
  auto pops = pops_;
  auto alive = alive_;
  auto links = links_;
  std::vector<char> added_flag(pops_.size(), 0);    // grows with PopAdd
  std::vector<char> removed_flag(pops_.size(), 0);  // ids tombstoned here

  const auto resolve = [&](const std::string& name,
                           const NetworkUpdate& u) -> PopId {
    for (PopId i = 0; i < pops.size(); ++i) {
      if (alive[i] && pops[i].name == name) return i;
    }
    bad_update(u, "unknown PoP '" + name + "'");
  };
  const auto key_of = [](PopId a, PopId b) {
    return a < b ? LinkKey{a, b} : LinkKey{b, a};
  };

  for (const auto& u : batch) {
    switch (u.kind) {
      case NetworkUpdate::Kind::LinkWeight: {
        const PopId a = resolve(u.a, u);
        const PopId b = resolve(u.b, u);
        if (a == b) bad_update(u, "self link");
        const auto it = links.find(key_of(a, b));
        if (it == links.end()) bad_update(u, "no such link");
        if (!(u.length_miles >= 0.0) || !std::isfinite(u.length_miles)) {
          bad_update(u, "length must be finite and >= 0");
        }
        it->second.length_miles = u.length_miles;
        break;
      }
      case NetworkUpdate::Kind::LinkDown: {
        const PopId a = resolve(u.a, u);
        const PopId b = resolve(u.b, u);
        if (links.erase(key_of(a, b)) == 0) bad_update(u, "no such link");
        break;
      }
      case NetworkUpdate::Kind::LinkUp: {
        const PopId a = resolve(u.a, u);
        const PopId b = resolve(u.b, u);
        if (a == b) bad_update(u, "self link");
        const LinkKey key = key_of(a, b);
        if (links.contains(key)) bad_update(u, "duplicate link");
        const double length =
            u.length_miles >= 0.0
                ? u.length_miles
                : geo::haversine_miles(pops[a].location, pops[b].location);
        if (!(length >= 0.0) || !std::isfinite(length)) {
          bad_update(u, "length must be finite and >= 0");
        }
        if (!(u.capacity_gbps > 0.0) || !std::isfinite(u.capacity_gbps)) {
          bad_update(u, "capacity must be finite and > 0");
        }
        links[key] = LinkState{length, u.capacity_gbps};
        break;
      }
      case NetworkUpdate::Kind::PopAdd: {
        for (PopId i = 0; i < pops.size(); ++i) {
          if (alive[i] && pops[i].name == u.name) {
            bad_update(u, "duplicate PoP name '" + u.name + "'");
          }
        }
        try {
          geo::validate(u.location);
        } catch (const std::invalid_argument& e) {
          bad_update(u, e.what());
        }
        pops.push_back(topology::Pop{u.name, u.location});
        alive.push_back(1);
        added_flag.push_back(1);
        removed_flag.push_back(0);
        break;
      }
      case NetworkUpdate::Kind::PopRemove: {
        const PopId id = resolve(u.name, u);
        for (auto it = links.begin(); it != links.end();) {
          if (it->first.first == id || it->first.second == id) {
            it = links.erase(it);
          } else {
            ++it;
          }
        }
        alive[id] = 0;
        removed_flag[id] = 1;
        break;
      }
    }
  }

  // Phase B: net edge diff of the batch, classified for the repair
  // kernel. Removals and lengthenings can only invalidate tree paths;
  // insertions and shortenings can only offer better ones.
  std::vector<EdgeChange> increases;
  std::vector<EdgeChange> decreases;
  for (const auto& [key, state] : links_) {
    const auto it = links.find(key);
    if (it == links.end()) {
      increases.push_back({key.first, key.second, kUnreachable});
    } else if (it->second.length_miles > state.length_miles) {
      increases.push_back({key.first, key.second, it->second.length_miles});
    } else if (it->second.length_miles < state.length_miles) {
      decreases.push_back({key.first, key.second, it->second.length_miles});
    }
  }
  for (const auto& [key, state] : links) {
    if (!links_.contains(key)) {
      decreases.push_back({key.first, key.second, state.length_miles});
    }
  }

  // Phase C: commit the structure.
  const std::size_t n0 = pops_.size();
  pops_ = std::move(pops);
  alive_ = std::move(alive);
  links_ = std::move(links);
  rebuild_adjacency();
  const std::size_t n1 = pops_.size();
  if (n1 > n0) {
    dist_.grow(n1);
    for (PopId s = 0; s < n0; ++s) {
      pred_[s].resize(n1);
      for (PopId v = n0; v < n1; ++v) pred_[s][v] = v;
    }
    for (PopId s = n0; s < n1; ++s) {
      pred_.emplace_back(n1);
      for (PopId v = 0; v < n1; ++v) pred_[s][v] = v;
    }
  }

  // Phase D: bring the distance matrix to the new topology's fixed point
  // and collect the exact changed-cell set, row by row in id order.
  ++epoch_;
  DistanceDelta delta;
  delta.epoch = epoch_;
  delta.pop_count = n1;
  std::vector<double> old_row(n1);
  std::size_t affected_vertices = 0;
  const auto diff_row = [&](PopId s) {
    const auto row = dist_.row(s);
    for (PopId v = 0; v < n1; ++v) {
      if (row[v] != old_row[v]) delta.changed.emplace_back(s, v);
    }
  };
  const auto snapshot_row = [&](PopId s) {
    const auto row = dist_.row(s);
    std::copy(row.begin(), row.end(), old_row.begin());
  };
  const auto tombstone_row = [&](PopId s) {
    auto row = dist_.row(s);
    std::fill(row.begin(), row.end(), kUnreachable);
    for (PopId v = 0; v < n1; ++v) pred_[s][v] = v;
  };

  for (PopId s = 0; s < n1; ++s) {
    if (!alive_[s]) {
      if (s < removed_flag.size() && removed_flag[s]) {
        snapshot_row(s);
        tombstone_row(s);
        diff_row(s);
      }
      continue;
    }
    if (s < added_flag.size() && added_flag[s]) {
      snapshot_row(s);
      topology::shortest_paths_into(adjacency_, s, dist_.row(s), pred_[s]);
      diff_row(s);
      affected_vertices += n1;
      continue;
    }
    if (!row_affected(s, increases, decreases)) continue;
    snapshot_row(s);
    repair_row(s, increases, decreases);
    diff_row(s);
    affected_vertices += cone_.size();
  }

  updates_counter.add(batch.size());
  batches_counter.add();
  affected_counter.add(affected_vertices);
  changed_counter.add(delta.changed.size());
  return delta;
}

bool DynamicNetwork::row_affected(PopId source,
                                  std::span<const EdgeChange> increases,
                                  std::span<const EdgeChange> decreases) const {
  const auto& p = pred_[source];
  const auto row = dist_.row(source);
  for (const auto& e : increases) {
    // Only a tree edge can invalidate: every other vertex keeps a
    // shortest path that avoids the change.
    if (e.a != source && row[e.a] != kUnreachable && p[e.a] == e.b) return true;
    if (e.b != source && row[e.b] != kUnreachable && p[e.b] == e.a) return true;
  }
  for (const auto& e : decreases) {
    if (row[e.a] != kUnreachable && row[e.a] + e.length_miles < row[e.b]) {
      return true;
    }
    if (row[e.b] != kUnreachable && row[e.b] + e.length_miles < row[e.a]) {
      return true;
    }
  }
  return false;
}

void DynamicNetwork::repair_row(PopId source,
                                std::span<const EdgeChange> increases,
                                std::span<const EdgeChange> decreases) {
  const std::size_t n = pops_.size();
  auto d = dist_.row(source);
  auto& p = pred_[source];

  // Invalidation cone: pred-tree descendants of every vertex whose tree
  // edge lengthened or vanished.
  if (children_.size() < n) children_.resize(n);
  for (std::size_t v = 0; v < n; ++v) children_[v].clear();
  for (PopId v = 0; v < n; ++v) {
    if (v == source || d[v] == kUnreachable || p[v] == v) continue;
    children_[p[v]].push_back(v);
  }
  in_cone_.assign(n, 0);
  cone_.clear();
  const auto add_root = [&](PopId v) {
    if (!in_cone_[v]) {
      in_cone_[v] = 1;
      cone_.push_back(v);
    }
  };
  for (const auto& e : increases) {
    if (e.a != source && d[e.a] != kUnreachable && p[e.a] == e.b) {
      add_root(e.a);
    }
    if (e.b != source && d[e.b] != kUnreachable && p[e.b] == e.a) {
      add_root(e.b);
    }
  }
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    for (const PopId c : children_[cone_[i]]) {
      if (!in_cone_[c]) {
        in_cone_[c] = 1;
        cone_.push_back(c);
      }
    }
  }
  for (const PopId v : cone_) {
    d[v] = kUnreachable;
    p[v] = v;
  }

  // Label-correcting Dijkstra seeded from the cone boundary and from the
  // decreased edges. Every relaxation evaluates d[u] + w exactly as the
  // from-scratch kernel does, so the fixed point it converges to carries
  // the same bits.
  using Item = std::pair<double, PopId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  for (const PopId v : cone_) {
    double best = kUnreachable;
    PopId best_pred = v;
    for (const auto& e : adjacency_[v]) {
      if (in_cone_[e.to] || d[e.to] == kUnreachable) continue;
      const double cand = d[e.to] + e.length_miles;
      if (cand < best) {
        best = cand;
        best_pred = e.to;
      }
    }
    if (best < kUnreachable) {
      d[v] = best;
      p[v] = best_pred;
      heap.push({best, v});
    }
  }
  for (const auto& e : decreases) {
    if (d[e.a] != kUnreachable) {
      const double cand = d[e.a] + e.length_miles;
      if (cand < d[e.b]) {
        d[e.b] = cand;
        p[e.b] = e.a;
        heap.push({cand, e.b});
      }
    }
    if (d[e.b] != kUnreachable) {
      const double cand = d[e.b] + e.length_miles;
      if (cand < d[e.a]) {
        d[e.a] = cand;
        p[e.a] = e.b;
        heap.push({cand, e.a});
      }
    }
  }
  while (!heap.empty()) {
    const auto [dv, v] = heap.top();
    heap.pop();
    if (dv > d[v]) continue;
    for (const auto& e : adjacency_[v]) {
      const double cand = dv + e.length_miles;
      if (cand < d[e.to]) {
        d[e.to] = cand;
        p[e.to] = v;
        heap.push({cand, e.to});
      }
    }
  }
}

}  // namespace manytiers::netdyn
