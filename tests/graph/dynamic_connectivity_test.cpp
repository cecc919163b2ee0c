// dynamic_connectivity_test.cpp -- unit tests for the incremental
// connectivity tracker plus a differential harness that replays
// thousands of randomized insert/delete schedules (seeded; shrinking to
// a minimal failing schedule on mismatch) against the BFS ground truth
// in graph/traversal.h after every single operation.
#include "graph/dynamic_connectivity.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../test_helpers.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

using dash::util::Rng;

/// Full structural comparison against a fresh BFS labelling.
::testing::AssertionResult matches_truth(DynamicConnectivity& dc,
                                         const Graph& g) {
  const Components truth = connected_components(g);
  if (dc.component_count() != truth.count()) {
    return ::testing::AssertionFailure()
           << "component_count " << dc.component_count() << " != BFS "
           << truth.count();
  }
  if (dc.largest_component() != truth.largest()) {
    return ::testing::AssertionFailure()
           << "largest_component " << dc.largest_component() << " != BFS "
           << truth.largest();
  }
  if (dc.connected() != is_connected(g)) {
    return ::testing::AssertionFailure()
           << "connected() " << dc.connected() << " != BFS "
           << is_connected(g);
  }
  const ::testing::AssertionResult labels =
      dash::testing::same_partition(dc.labels(), truth);
  if (!labels) {
    return ::testing::AssertionFailure()
           << "labels(): " << labels.message();
  }
  std::vector<NodeId> rep(truth.count(), kInvalidNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    const std::uint32_t label = truth.label[v];
    if (rep[label] == kInvalidNode) {
      rep[label] = v;
      if (dc.component_size(v) != truth.sizes[label]) {
        return ::testing::AssertionFailure()
               << "component_size(" << v << ") " << dc.component_size(v)
               << " != BFS " << truth.sizes[label];
      }
    } else if (!dc.same_component(v, rep[label])) {
      return ::testing::AssertionFailure()
             << "tracker splits BFS-connected " << v << " and "
             << rep[label];
    }
  }
  return ::testing::AssertionSuccess();
}

// ---- unit tests -----------------------------------------------------------

TEST(DynamicConnectivity, SnapshotsInitialStructure) {
  Rng rng(1);
  const Graph g = barabasi_albert(64, 2, rng);
  DynamicConnectivity dc(g);
  EXPECT_TRUE(dc.connected());
  EXPECT_EQ(dc.component_count(), 1u);
  EXPECT_EQ(dc.largest_component(), 64u);
  EXPECT_EQ(dc.rebuilds(), 0u);
}

TEST(DynamicConnectivity, SnapshotsDisconnectedGraph) {
  Graph g(5);  // isolated nodes
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  DynamicConnectivity dc(g);
  EXPECT_FALSE(dc.connected());
  EXPECT_EQ(dc.component_count(), 3u);
  EXPECT_EQ(dc.largest_component(), 2u);
  EXPECT_TRUE(dc.same_component(0, 1));
  EXPECT_FALSE(dc.same_component(1, 2));
  EXPECT_EQ(dc.component_size(4), 1u);
}

TEST(DynamicConnectivity, EmptyAndSingletonAreConnected) {
  Graph empty(0);
  DynamicConnectivity dc0(empty);
  EXPECT_TRUE(dc0.connected());
  EXPECT_EQ(dc0.component_count(), 0u);
  EXPECT_EQ(dc0.largest_component(), 0u);

  Graph one(1);
  DynamicConnectivity dc1(one);
  EXPECT_TRUE(dc1.connected());
  EXPECT_EQ(dc1.component_count(), 1u);
}

TEST(DynamicConnectivity, EdgeInsertionMerges) {
  Graph g(4);
  DynamicConnectivity dc(g);
  EXPECT_EQ(dc.component_count(), 4u);
  g.add_edge(0, 1);
  dc.edge_added(0, 1);
  g.add_edge(2, 3);
  dc.edge_added(2, 3);
  EXPECT_EQ(dc.component_count(), 2u);
  g.add_edge(1, 2);
  dc.edge_added(1, 2);
  EXPECT_TRUE(dc.connected());
  EXPECT_EQ(dc.largest_component(), 4u);
  EXPECT_EQ(dc.rebuilds(), 0u);  // insert-only: pure label merges
}

TEST(DynamicConnectivity, MergeRelabelsTheSmallerSide) {
  // {0,1,2} absorbs the singleton {3}: the singleton takes the larger
  // side's label, whichever endpoint the edge names first.
  Graph g = path_graph(3);
  const NodeId v = g.add_node();
  DynamicConnectivity dc(g);
  const std::uint32_t big = dc.labels()[0];
  g.add_edge(v, 2);
  dc.edge_added(v, 2);
  EXPECT_EQ(dc.labels()[v], big);
  EXPECT_EQ(dc.labels()[0], big);
  EXPECT_EQ(dc.component_size(v), 4u);
  EXPECT_TRUE(matches_truth(dc, g));
}

TEST(DynamicConnectivity, HistogramStepsStayConstantPerGiantComponentOp) {
  // Deleting from, or joining into, the giant component changes the
  // largest size by one. The histogram adds the new size before it
  // drops the old one, so its maximum never walks down from ~n: at most
  // one step per operation, and none per merge.
  constexpr std::size_t kNodes = 20000;
  constexpr std::size_t kOps = 10000;
  Graph g = path_graph(kNodes);
  DynamicConnectivity dc(g);
  const std::size_t before = dc.histogram_steps();
  NodeId oldest = 0;
  auto newest = static_cast<NodeId>(kNodes - 1);
  for (std::size_t i = 0; i < kOps; ++i) {
    // A path end has one survivor, so the deletion cannot split.
    const auto survivors = g.delete_node(oldest);
    dc.node_removed(oldest, survivors, /*may_split=*/true);
    ++oldest;
    const NodeId joined = g.add_node();
    dc.node_added(joined);
    g.add_edge(joined, newest);
    dc.edge_added(joined, newest);
    newest = joined;
  }
  EXPECT_LE(dc.histogram_steps() - before, 2 * kOps);
  EXPECT_EQ(dc.rebuilds(), 0u);
  EXPECT_EQ(dc.largest_component(), kNodes);
  EXPECT_TRUE(matches_truth(dc, g));
}

TEST(DynamicConnectivity, CertifiedDeletionSkipsRescan) {
  // Triangle: deleting any corner leaves the other two adjacent, so the
  // caller can certify no split -- the O(1) fast path.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  DynamicConnectivity dc(g);
  const auto survivors = g.delete_node(0);
  dc.node_removed(0, survivors, /*may_split=*/false);
  EXPECT_FALSE(dc.rescan_pending());
  EXPECT_TRUE(dc.connected());
  EXPECT_EQ(dc.component_count(), 1u);
  EXPECT_EQ(dc.largest_component(), 2u);
  EXPECT_EQ(dc.rebuilds(), 0u);
}

TEST(DynamicConnectivity, UncertifiedDeletionRescansAffectedComponent) {
  // Star: deleting the hub shatters the component into leaves.
  Graph g = star_graph(5);
  DynamicConnectivity dc(g);
  const auto survivors = g.delete_node(0);
  dc.node_removed(0, survivors, /*may_split=*/true);
  EXPECT_TRUE(dc.rescan_pending());
  EXPECT_EQ(dc.component_count(), 4u);  // query flushed the re-scan
  EXPECT_FALSE(dc.rescan_pending());
  EXPECT_EQ(dc.largest_component(), 1u);
  EXPECT_EQ(dc.rebuilds(), 1u);
  EXPECT_EQ(dc.nodes_rescanned(), 4u);  // only the affected component
  EXPECT_TRUE(matches_truth(dc, g));    // one fresh label per leaf
}

TEST(DynamicConnectivity, SingleSurvivorNeverSplits) {
  // Path 0-1-2: deleting the endpoint 0 leaves one survivor; no split
  // is possible and no re-scan may be queued even without certificate.
  Graph g = path_graph(3);
  DynamicConnectivity dc(g);
  const auto survivors = g.delete_node(0);
  ASSERT_EQ(survivors.size(), 1u);
  dc.node_removed(0, survivors, /*may_split=*/true);
  EXPECT_FALSE(dc.rescan_pending());
  EXPECT_TRUE(dc.connected());
  EXPECT_EQ(dc.rebuilds(), 0u);
}

TEST(DynamicConnectivity, EdgeRemovalResolvedLazily) {
  Graph g = path_graph(4);
  DynamicConnectivity dc(g);
  g.remove_edge(1, 2);
  dc.edge_removed(1, 2);
  EXPECT_TRUE(dc.rescan_pending());
  EXPECT_FALSE(dc.connected());
  EXPECT_EQ(dc.component_count(), 2u);
  EXPECT_EQ(dc.largest_component(), 2u);

  // Removing a cycle chord must NOT split.
  Graph c = cycle_graph(4);
  DynamicConnectivity dcc(c);
  c.remove_edge(0, 1);
  dcc.edge_removed(0, 1);
  EXPECT_TRUE(dcc.connected());
  EXPECT_EQ(dcc.component_count(), 1u);
}

TEST(DynamicConnectivity, NodeAdditionGrowsIdSpace) {
  Graph g = path_graph(2);
  DynamicConnectivity dc(g);
  const NodeId v = g.add_node();
  dc.node_added(v);
  EXPECT_EQ(dc.component_count(), 2u);
  g.add_edge(v, 0);
  dc.edge_added(v, 0);
  EXPECT_TRUE(dc.connected());
  EXPECT_EQ(dc.component_size(v), 3u);
}

TEST(DynamicConnectivity, CertifiedDeletionOfSeedHandsDutyToSurvivor) {
  // Line 0-1-2-3. Cutting {1,2} seeds nodes 1 and 2; then deleting
  // seed 2 with a certificate must hand its duty to survivor 3, so the
  // flush still discovers the {3} piece.
  Graph g = path_graph(4);
  DynamicConnectivity dc(g);
  g.remove_edge(1, 2);
  dc.edge_removed(1, 2);
  const auto survivors = g.delete_node(2);
  ASSERT_EQ(survivors, std::vector<NodeId>{3});
  dc.node_removed(2, survivors, /*may_split=*/false);
  EXPECT_EQ(dc.component_count(), 2u);
  EXPECT_TRUE(dc.same_component(0, 1));
  EXPECT_EQ(dc.component_size(3), 1u);
}

TEST(DynamicConnectivity, BatchRemovalSeedsAllSurvivors) {
  // Path 0-1-2-3-4: batch-deleting {1,3} leaves {0}, {2}, {4}.
  Graph g = path_graph(5);
  DynamicConnectivity dc(g);
  const std::vector<NodeId> batch{1, 3};
  std::vector<NodeId> survivors{0, 2, 4};  // union of batch neighbors
  for (NodeId v : batch) g.delete_node(v);
  dc.batch_removed(batch, survivors, /*may_split=*/true);
  EXPECT_EQ(dc.component_count(), 3u);
  EXPECT_EQ(dc.largest_component(), 1u);
}

TEST(DynamicConnectivity, CertifiedBatchSkipsRescan) {
  // Cycle 0-1-2-3-4-5-0: batch-deleting adjacent {1,2} leaves the path
  // 3-4-5-0, which stays connected -- a certifiable batch round.
  Graph g = path_graph(6);
  g.add_edge(0, 5);
  DynamicConnectivity dc(g);
  dc.edge_added(0, 5);
  const std::vector<NodeId> batch{1, 2};
  for (NodeId v : batch) g.delete_node(v);
  const std::vector<NodeId> survivors{0, 3};
  dc.batch_removed(batch, survivors, /*may_split=*/false);
  EXPECT_FALSE(dc.rescan_pending());
  EXPECT_TRUE(dc.connected());
  EXPECT_EQ(dc.rebuilds(), 0u);
  EXPECT_EQ(dc.component_size(0), 4u);
}

TEST(DynamicConnectivity, CertifiedBatchOfSeedsHandsDutyToSurvivor) {
  // Cycle 0-1-2-3-4-0. Cutting {1,2} seeds 1 and 2 (the tracker cannot
  // see the cycle still holds). Batch-deleting {1,2} leaves 0-4-3 with
  // survivors {0,3} mutually connected -- a valid certificate -- but
  // the dead members carried pending seed duty, so a survivor must
  // inherit it and the flush must re-scan the remnant correctly.
  Graph g = path_graph(5);
  g.add_edge(0, 4);
  DynamicConnectivity dc(g);
  dc.edge_added(0, 4);
  g.remove_edge(1, 2);
  dc.edge_removed(1, 2);
  const std::vector<NodeId> batch{1, 2};
  for (NodeId v : batch) g.delete_node(v);
  dc.batch_removed(batch, {0, 3}, /*may_split=*/false);
  EXPECT_TRUE(dc.rescan_pending());
  EXPECT_TRUE(dc.connected());
  EXPECT_EQ(dc.component_count(), 1u);
  EXPECT_EQ(dc.component_size(0), 3u);
}

TEST(DynamicConnectivity, QueriesOnDeadNodesAbort) {
  Graph g = path_graph(3);
  DynamicConnectivity dc(g);
  const auto survivors = g.delete_node(0);
  dc.node_removed(0, survivors, false);
  EXPECT_DEATH(dc.component_size(0), "alive");
  EXPECT_DEATH(dc.same_component(0, 1), "alive");
}

// ---- differential harness -------------------------------------------------

struct Op {
  enum Kind { kAddEdge, kRemoveEdge, kDeleteNode, kAddNode } kind;
  // For kAddEdge/kRemoveEdge: endpoint hints. For kDeleteNode: victim
  // hint. Hints are reduced mod the current node count at replay time,
  // so shrunk schedules stay meaningful.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  /// kDeleteNode: try the certified fast path when the ground truth
  /// confirms the survivors stayed mutually connected (the harness
  /// plays the role of a correct certifier; it never certifies a lie).
  bool certify = false;
};

std::string describe(const std::vector<Op>& ops, std::size_t n0) {
  std::ostringstream out;
  out << "n0=" << n0 << " ops=[";
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kAddEdge:
        out << " +e(" << op.a << "," << op.b << ")";
        break;
      case Op::kRemoveEdge:
        out << " -e(" << op.a << "," << op.b << ")";
        break;
      case Op::kDeleteNode:
        out << " -v(" << op.a << (op.certify ? ",cert" : "") << ")";
        break;
      case Op::kAddNode:
        out << " +v";
        break;
    }
  }
  out << " ]";
  return out.str();
}

/// All survivors in one truth component => a correct certificate.
bool truth_certifies(const Graph& g, const std::vector<NodeId>& survivors) {
  if (survivors.size() < 2) return true;
  const Components truth = connected_components(g);
  const std::uint32_t label = truth.label[survivors.front()];
  for (NodeId s : survivors) {
    if (truth.label[s] != label) return false;
  }
  return true;
}

/// Replay a schedule from scratch, comparing tracker vs BFS after every
/// operation. Returns the 1-based index of the first mismatching op (0
/// for an initial-state mismatch), or -1 when everything matches.
std::ptrdiff_t replay(std::size_t n0, const std::vector<Op>& ops) {
  Graph g(n0);
  DynamicConnectivity dc(g);
  if (!matches_truth(dc, g)) return 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::size_t n = g.num_nodes();
    switch (op.kind) {
      case Op::kAddEdge: {
        const NodeId a = static_cast<NodeId>(op.a % n);
        const NodeId b = static_cast<NodeId>(op.b % n);
        if (a == b || !g.alive(a) || !g.alive(b)) break;
        if (g.add_edge(a, b)) dc.edge_added(a, b);
        break;
      }
      case Op::kRemoveEdge: {
        const NodeId a = static_cast<NodeId>(op.a % n);
        const NodeId b = static_cast<NodeId>(op.b % n);
        if (a == b || !g.alive(a) || !g.alive(b)) break;
        if (g.remove_edge(a, b)) dc.edge_removed(a, b);
        break;
      }
      case Op::kDeleteNode: {
        const NodeId v = static_cast<NodeId>(op.a % n);
        if (!g.alive(v) || g.num_alive() <= 1) break;
        const auto survivors = g.delete_node(v);
        const bool certified = op.certify && truth_certifies(g, survivors);
        dc.node_removed(v, survivors, !certified);
        break;
      }
      case Op::kAddNode: {
        dc.node_added(g.add_node());
        break;
      }
    }
    if (!matches_truth(dc, g)) return static_cast<std::ptrdiff_t>(i) + 1;
  }
  return -1;
}

/// Greedy delta-shrink: drop ops one at a time while the schedule still
/// fails, then report the minimal reproducer.
std::vector<Op> shrink(std::size_t n0, std::vector<Op> ops) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (replay(n0, candidate) >= 0) {
        ops = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return ops;
}

TEST(DynamicConnectivityDifferential, ThousandRandomSchedules) {
  constexpr std::size_t kSchedules = 1000;
  constexpr std::size_t kOpsPerSchedule = 40;
  for (std::size_t s = 0; s < kSchedules; ++s) {
    Rng rng(0xD1FFu + s);
    const std::size_t n0 = 2 + rng.below(24);
    std::vector<Op> ops;
    ops.reserve(kOpsPerSchedule);
    for (std::size_t i = 0; i < kOpsPerSchedule; ++i) {
      Op op;
      const std::uint64_t roll = rng.below(100);
      if (roll < 35) {
        op.kind = Op::kAddEdge;
      } else if (roll < 55) {
        op.kind = Op::kRemoveEdge;
      } else if (roll < 85) {
        op.kind = Op::kDeleteNode;
      } else {
        op.kind = Op::kAddNode;
      }
      op.a = rng.next_u64();
      op.b = rng.next_u64();
      op.certify = rng.chance(0.5);
      ops.push_back(op);
    }
    const std::ptrdiff_t failed = replay(n0, ops);
    if (failed >= 0) {
      const std::vector<Op> minimal = shrink(n0, ops);
      FAIL() << "schedule " << s << " diverged at op " << failed
             << "; minimal reproducer (" << minimal.size()
             << " ops): " << describe(minimal, n0);
    }
  }
}

TEST(DynamicConnectivityDifferential, HealingLikeScheduleStaysCertified) {
  // Emulates what the engine does on a healing run: delete a node, wire
  // its survivors back into a path (all certifiable), and confirm the
  // tracker never rebuilds -- no round pays a re-scan.
  Rng rng(77);
  Graph g = barabasi_albert(128, 2, rng);
  DynamicConnectivity dc(g);
  while (g.num_alive() > 2) {
    const auto alive = g.alive_nodes();
    const NodeId v = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const auto survivors = g.delete_node(v);
    for (std::size_t i = 1; i < survivors.size(); ++i) {
      if (g.add_edge(survivors[i - 1], survivors[i])) {
        dc.edge_added(survivors[i - 1], survivors[i]);
      }
    }
    dc.node_removed(v, survivors, /*may_split=*/false);
    ASSERT_TRUE(dc.connected());
  }
  EXPECT_EQ(dc.rebuilds(), 0u);
  EXPECT_EQ(dc.nodes_rescanned(), 0u);
}

}  // namespace
}  // namespace dash::graph
