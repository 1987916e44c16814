#include "netdyn/dynamic_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "netdyn/testbed.hpp"
#include "topology/internet2.hpp"

namespace manytiers::netdyn {
namespace {

using topology::kUnreachable;
using topology::PopId;

// Bit-for-bit matrix comparison. EXPECT_EQ on doubles is exact (and
// inf == inf holds), which is precisely the invariant incremental
// repair promises against the from-scratch reference.
void expect_matrices_identical(const topology::DistanceMatrix& got,
                               const topology::DistanceMatrix& want,
                               const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (PopId s = 0; s < got.size(); ++s) {
    for (PopId d = 0; d < got.size(); ++d) {
      ASSERT_EQ(got(s, d), want(s, d))
          << context << ": cell (" << s << ", " << d << ")";
    }
  }
}

NetworkUpdate reweigh(const std::string& a, const std::string& b,
                      double length) {
  NetworkUpdate u;
  u.kind = NetworkUpdate::Kind::LinkWeight;
  u.a = a;
  u.b = b;
  u.length_miles = length;
  return u;
}

NetworkUpdate link_down(const std::string& a, const std::string& b) {
  NetworkUpdate u;
  u.kind = NetworkUpdate::Kind::LinkDown;
  u.a = a;
  u.b = b;
  return u;
}

TEST(DynamicNetwork, StartsAtTheStaticAllPairsMatrix) {
  const auto net = topology::internet2_network();
  const DynamicNetwork dyn(net);
  EXPECT_EQ(dyn.epoch(), 0u);
  expect_matrices_identical(dyn.distances(), topology::all_pairs_distances(net),
                            "epoch 0");
}

TEST(DynamicNetwork, DeltaNamesExactlyTheChangedCells) {
  DynamicNetwork dyn(topology::internet2_network());
  const topology::DistanceMatrix before = dyn.distances();
  const auto delta = dyn.apply(reweigh("Denver", "Kansas City", 5000.0));
  EXPECT_EQ(delta.epoch, 1u);
  EXPECT_EQ(delta.pop_count, dyn.pop_count());

  std::set<std::pair<PopId, PopId>> expected;
  for (PopId s = 0; s < dyn.pop_count(); ++s) {
    for (PopId d = 0; d < dyn.pop_count(); ++d) {
      if (dyn.distances()(s, d) != before(s, d)) expected.insert({s, d});
    }
  }
  EXPECT_FALSE(expected.empty());
  const std::set<std::pair<PopId, PopId>> got(delta.changed.begin(),
                                              delta.changed.end());
  EXPECT_EQ(got, expected);
  // Sorted and duplicate-free by contract.
  EXPECT_EQ(got.size(), delta.changed.size());
  EXPECT_TRUE(std::is_sorted(delta.changed.begin(), delta.changed.end()));
}

TEST(DynamicNetwork, SameValueReweighYieldsEmptyDeltaButAdvancesEpoch) {
  DynamicNetwork dyn(topology::internet2_network());
  dyn.apply(reweigh("Seattle", "Denver", 4321.0));
  const topology::DistanceMatrix before = dyn.distances();
  // Reweighing to the value the link already has is a topology event
  // (the epoch moves) with zero net edge change.
  const auto delta = dyn.apply(reweigh("Seattle", "Denver", 4321.0));
  EXPECT_EQ(dyn.epoch(), 2u);
  EXPECT_EQ(delta.epoch, 2u);
  EXPECT_TRUE(delta.empty());
  expect_matrices_identical(dyn.distances(), before,
                            "after same-length reweigh");
}

TEST(DynamicNetwork, LinkFailureCanPartition) {
  DynamicNetwork dyn(topology::internet2_network());
  // Cutting both of Seattle's links isolates it.
  std::vector<NetworkUpdate> batch{link_down("Seattle", "Sunnyvale"),
                                   link_down("Seattle", "Denver")};
  const auto delta = dyn.apply(batch);
  EXPECT_FALSE(delta.empty());
  const PopId seattle = *dyn.find_pop("Seattle");
  const PopId denver = *dyn.find_pop("Denver");
  EXPECT_EQ(dyn.distances()(seattle, denver), kUnreachable);
  EXPECT_EQ(dyn.distances()(denver, seattle), kUnreachable);
  EXPECT_EQ(dyn.distances()(seattle, seattle), 0.0);  // still its own source
  expect_matrices_identical(dyn.distances(), dyn.scratch_distances(),
                            "after partition");
}

TEST(DynamicNetwork, PopLifecycleTombstonesAndGrows) {
  DynamicNetwork dyn(topology::internet2_network());
  const std::size_t n0 = dyn.pop_count();
  const PopId denver = *dyn.find_pop("Denver");

  NetworkUpdate rm;
  rm.kind = NetworkUpdate::Kind::PopRemove;
  rm.name = "Denver";
  dyn.apply(rm);
  EXPECT_EQ(dyn.pop_count(), n0);  // tombstone keeps the slot
  EXPECT_EQ(dyn.alive_count(), n0 - 1);
  EXPECT_FALSE(dyn.alive(denver));
  EXPECT_FALSE(dyn.find_pop("Denver").has_value());
  for (PopId d = 0; d < dyn.pop_count(); ++d) {
    EXPECT_EQ(dyn.distances()(denver, d), kUnreachable);  // diagonal too
    EXPECT_EQ(dyn.distances()(d, denver), kUnreachable);
  }
  expect_matrices_identical(dyn.distances(), dyn.scratch_distances(),
                            "after PoP removal");

  // The name is free again; the new PoP gets a fresh id and a wired
  // link, and its row comes from a full single-source run.
  std::vector<NetworkUpdate> re;
  NetworkUpdate add;
  add.kind = NetworkUpdate::Kind::PopAdd;
  add.name = "Denver";
  add.location = {39.74, -104.98};
  re.push_back(add);
  NetworkUpdate wire;
  wire.kind = NetworkUpdate::Kind::LinkUp;
  wire.a = "Denver";
  wire.b = "Kansas City";
  wire.length_miles = 600.0;
  re.push_back(wire);
  dyn.apply(re);
  EXPECT_EQ(dyn.pop_count(), n0 + 1);
  const PopId denver2 = *dyn.find_pop("Denver");
  EXPECT_NE(denver2, denver);
  EXPECT_EQ(dyn.distances()(denver2, *dyn.find_pop("Kansas City")), 600.0);
  expect_matrices_identical(dyn.distances(), dyn.scratch_distances(),
                            "after PoP re-add");
}

TEST(DynamicNetwork, InvalidOpsThrowAndLeaveStateUntouched) {
  DynamicNetwork dyn(topology::internet2_network());
  const topology::DistanceMatrix before = dyn.distances();

  const auto expect_rejected = [&](const NetworkUpdate& u) {
    EXPECT_THROW(dyn.apply(u), std::invalid_argument);
    EXPECT_EQ(dyn.epoch(), 0u);
    expect_matrices_identical(dyn.distances(), before, "after rejected op");
  };

  expect_rejected(reweigh("Nowhere", "Denver", 100.0));   // unknown PoP
  expect_rejected(reweigh("Seattle", "Atlanta", 100.0));  // no such link
  expect_rejected(reweigh("Seattle", "Denver", -1.0));    // negative length
  expect_rejected(link_down("Seattle", "Atlanta"));       // no such link
  NetworkUpdate dup;
  dup.kind = NetworkUpdate::Kind::LinkUp;
  dup.a = "Seattle";
  dup.b = "Denver";  // already up
  expect_rejected(dup);
  NetworkUpdate add;
  add.kind = NetworkUpdate::Kind::PopAdd;
  add.name = "Seattle";  // duplicate alive name
  add.location = {0.0, 0.0};
  expect_rejected(add);

  // A batch that fails mid-way must not commit its valid prefix.
  const std::vector<NetworkUpdate> batch{reweigh("Seattle", "Denver", 999.0),
                                         reweigh("Nowhere", "Denver", 1.0)};
  EXPECT_THROW(dyn.apply(batch), std::invalid_argument);
  EXPECT_EQ(dyn.epoch(), 0u);
  expect_matrices_identical(dyn.distances(), before, "after rejected batch");
}

// The tentpole invariant: over a generated mixed sequence (reweighs,
// failures, restorations, PoP adds and removals, partitions included),
// the incrementally maintained matrix equals the from-scratch reference
// bit-for-bit after every batch.
TEST(DynamicNetwork, GeneratedSequencesStayBitIdenticalToScratch) {
  const auto base = synthetic_backbone({.n_pops = 24, .extra_links = 14,
                                        .seed = 7});
  DynamicNetwork dyn(base);
  UpdateSequenceOptions seq;
  seq.n_batches = 12;
  seq.batch_size = 3;
  const auto batches = generate_update_sequence(base, 99, seq);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    dyn.apply(batches[b]);
    expect_matrices_identical(dyn.distances(), dyn.scratch_distances(),
                              "batch " + std::to_string(b));
  }
}

// Each batch's delta names exactly the cells that differ between the
// scratch matrices before and after it (a cell that exists only after a
// PoP addition counts when finite), in (src, dst) order.
TEST(DynamicNetwork, DeltaMatchesTheScratchDiffAlongTheSequence) {
  const auto base = synthetic_backbone({.n_pops = 20, .extra_links = 10,
                                        .seed = 3});
  DynamicNetwork dyn(base);
  const auto batches = generate_update_sequence(base, 5, {.n_batches = 8});
  topology::DistanceMatrix before = dyn.scratch_distances();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto delta = dyn.apply(batches[b]);
    const topology::DistanceMatrix after = dyn.scratch_distances();
    std::vector<std::pair<PopId, PopId>> expected;
    for (PopId s = 0; s < after.size(); ++s) {
      for (PopId d = 0; d < after.size(); ++d) {
        const bool existed = s < before.size() && d < before.size();
        const double old_value = existed ? before(s, d) : kUnreachable;
        if (after(s, d) != old_value) expected.emplace_back(s, d);
      }
    }
    EXPECT_EQ(delta.changed, expected) << "batch " << b;
    before = after;
  }
}

}  // namespace
}  // namespace manytiers::netdyn
