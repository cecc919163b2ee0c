// flat_traversal_test.cpp -- the flat traversal engine: FlatView CSR
// snapshots (generation-keyed lazy rebuild), TraversalScratch reuse,
// and the scratch-taking bfs/connectivity/components overloads,
// differentially checked against a verbatim copy of the legacy
// per-call-allocating implementations. The bidirectional
// point_distance kernel is checked against a full single-source BFS.
#include <algorithm>
#include <deque>
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/snapshot_store.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

using dash::util::Rng;

// ---- legacy reference implementations (pre-flat-engine, verbatim) ----

std::vector<std::uint32_t> ref_bfs_distances(const Graph& g, NodeId src) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> frontier;
  dist[src] = 0;
  frontier.push_back(src);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    const std::uint32_t next = dist[v] + 1;
    for (NodeId u : g.neighbors(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = next;
        frontier.push_back(u);
      }
    }
  }
  return dist;
}

Components ref_connected_components(const Graph& g) {
  Components out;
  out.label.assign(g.num_nodes(), kInvalidComponent);
  std::deque<NodeId> frontier;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (!g.alive(root) || out.label[root] != kInvalidComponent) continue;
    const auto comp = static_cast<std::uint32_t>(out.sizes.size());
    out.sizes.push_back(0);
    out.label[root] = comp;
    frontier.push_back(root);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      ++out.sizes[comp];
      for (NodeId u : g.neighbors(v)) {
        if (out.label[u] == kInvalidComponent) {
          out.label[u] = comp;
          frontier.push_back(u);
        }
      }
    }
  }
  return out;
}

/// Flat BFS distances materialized for comparison with the reference.
std::vector<std::uint32_t> flat_distances(const Graph& g, NodeId src,
                                          TraversalScratch& scratch) {
  bfs_distances(g.flat_view(), src, scratch);
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  for (NodeId v = 0; v < g.num_nodes(); ++v) dist[v] = scratch.distance(v);
  return dist;
}

void expect_engine_matches_reference(const Graph& g,
                                     TraversalScratch& scratch,
                                     const std::string& what) {
  const auto alive = g.alive_nodes();
  for (std::size_t i = 0; i < alive.size(); i += 1 + alive.size() / 7) {
    const NodeId src = alive[i];
    EXPECT_EQ(flat_distances(g, src, scratch), ref_bfs_distances(g, src))
        << what << " src=" << src;
  }
  const Components want = ref_connected_components(g);
  const Components got = connected_components(g);
  EXPECT_EQ(got.label, want.label) << what;
  EXPECT_EQ(got.sizes, want.sizes) << what;
}

// ---- FlatView snapshot semantics -------------------------------------

TEST(FlatView, MirrorsAdjacencyAndAliveSet) {
  Rng rng(5);
  Graph g = barabasi_albert(64, 2, rng);
  g.delete_node(7);
  const FlatView& view = g.flat_view();
  EXPECT_EQ(view.num_nodes(), g.num_nodes());
  EXPECT_EQ(view.num_alive(), g.num_alive());
  EXPECT_EQ(view.alive_nodes(), g.alive_nodes());
  EXPECT_EQ(view.num_edge_entries(), 2 * g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) {
      EXPECT_TRUE(view.neighbors(v).empty());
      continue;
    }
    const auto span = view.neighbors(v);
    ASSERT_EQ(span.size(), g.degree(v));
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i], g.neighbors(v)[i]);
    }
  }
}

TEST(FlatView, GenerationTracksRealMutationsOnly) {
  Graph g(4);
  const std::uint64_t g0 = g.generation();
  ASSERT_TRUE(g.add_edge(0, 1));
  EXPECT_GT(g.generation(), g0);
  const std::uint64_t g1 = g.generation();
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate: no topology change
  EXPECT_EQ(g.generation(), g1);
  EXPECT_FALSE(g.remove_edge(2, 3));  // absent: no topology change
  EXPECT_EQ(g.generation(), g1);
  g.add_node();
  EXPECT_GT(g.generation(), g1);
  const std::uint64_t g2 = g.generation();
  g.delete_node(0);
  EXPECT_GT(g.generation(), g2);
}

TEST(FlatView, CachedViewRebuildsLazilyOnMutation) {
  Graph g = path_graph(6);
  const FlatView& v1 = g.flat_view();
  EXPECT_TRUE(v1.matches(g.generation()));
  EXPECT_EQ(&v1, &g.flat_view());  // no mutation: same snapshot object
  EXPECT_EQ(g.flat_view().neighbors(2).size(), 2u);
  g.delete_node(3);
  const FlatView& v2 = g.flat_view();
  EXPECT_TRUE(v2.matches(g.generation()));
  EXPECT_EQ(v2.num_alive(), 5u);
  EXPECT_EQ(v2.neighbors(2).size(), 1u);
  EXPECT_TRUE(v2.neighbors(3).empty());
}

TEST(FlatView, CopiedGraphKeepsIndependentSnapshot) {
  Graph g = cycle_graph(5);
  (void)g.flat_view();
  Graph copy = g;
  copy.delete_node(0);
  EXPECT_EQ(copy.flat_view().num_alive(), 4u);
  EXPECT_EQ(g.flat_view().num_alive(), 5u);
}

// ---- scratch-taking overloads vs the legacy reference ----------------

TEST(FlatTraversal, MatchesReferenceAcrossMutationSchedule) {
  Rng rng(99);
  Graph g = barabasi_albert(80, 2, rng);
  TraversalScratch scratch;
  expect_engine_matches_reference(g, scratch, "initial");
  for (int round = 0; round < 30; ++round) {
    const auto alive = g.alive_nodes();
    if (alive.size() <= 3) break;
    const NodeId victim =
        alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const auto survivors = g.delete_node(victim);
    // Path-heal half the rounds; leave the graph fragmented otherwise.
    if (round % 2 == 0) {
      for (std::size_t i = 1; i < survivors.size(); ++i) {
        g.add_edge(survivors[i - 1], survivors[i]);
      }
    }
    expect_engine_matches_reference(
        g, scratch, "round " + std::to_string(round));
  }
}

TEST(FlatTraversal, ScratchReuseAcrossGraphsOfDifferentSizes) {
  TraversalScratch scratch;
  Rng rng(3);
  // Reuse one scratch over shrinking and growing id spaces; every run
  // must be as if the scratch were fresh.
  for (const std::size_t n : {40u, 8u, 120u, 16u}) {
    Graph g = barabasi_albert(n, 2, rng);
    EXPECT_EQ(flat_distances(g, 0, scratch), ref_bfs_distances(g, 0))
        << "n=" << n;
  }
}

TEST(FlatTraversal, EpochWrapStaysCorrect) {
  const Graph g = cycle_graph(9);
  const auto want = ref_bfs_distances(g, 4);
  TraversalScratch scratch;
  // The visited stamp is 8-bit: drive it through several wraps.
  for (int i = 0; i < 600; ++i) {
    ASSERT_EQ(flat_distances(g, 4, scratch), want) << "traversal " << i;
  }
}

TEST(FlatTraversal, VisitedIsLevelOrdered) {
  Rng rng(12);
  const Graph g = barabasi_albert(60, 2, rng);
  TraversalScratch scratch;
  const std::size_t seen = bfs_distances(g.flat_view(), 5, scratch);
  ASSERT_EQ(seen, scratch.visited().size());
  ASSERT_EQ(scratch.visited().front(), 5u);
  std::uint32_t prev = 0;
  for (const NodeId v : scratch.visited()) {
    EXPECT_GE(scratch.distance(v), prev);
    prev = scratch.distance(v);
  }
}

TEST(FlatTraversal, IsConnectedAndEccentricityAgree) {
  // The flat kernel and the graph-level wrapper answer connectivity
  // exactly as the reference BFS does, before and after a deletion.
  Rng rng(31);
  Graph g = barabasi_albert(50, 2, rng);
  TraversalScratch scratch;
  EXPECT_TRUE(is_connected(g.flat_view(), scratch));
  g.delete_node(1);  // BA node 1 can articulate; either way compare
  const auto alive = g.alive_nodes();
  const auto dist = ref_bfs_distances(g, alive.front());
  const bool want = std::all_of(alive.begin(), alive.end(), [&](NodeId v) {
    return dist[v] != kUnreachable;
  });
  EXPECT_EQ(is_connected(g.flat_view(), scratch), want);
  EXPECT_EQ(is_connected(g), want);
}

TEST(FlatTraversal, ComponentsBufferReuse) {
  TraversalScratch scratch;
  Components comps;
  Graph g = path_graph(7);
  connected_components(g.flat_view(), scratch, comps);
  EXPECT_EQ(comps.count(), 1u);
  g.delete_node(3);
  connected_components(g.flat_view(), scratch, comps);
  EXPECT_EQ(comps.count(), 2u);
  EXPECT_EQ(comps.largest(), 3u);
  const Graph empty(0);
  connected_components(empty.flat_view(), scratch, comps);
  EXPECT_EQ(comps.count(), 0u);
}

// ---- bidirectional point_distance vs a full single-source BFS -------

/// The independent reference for point queries: one full
/// direction-optimizing bfs_distances from `src`, read at every node.
std::vector<std::uint32_t> full_bfs_row(const FlatView& view, NodeId src,
                                        TraversalScratch& scratch) {
  bfs_distances(view, src, scratch);
  std::vector<std::uint32_t> row(view.num_nodes());
  for (NodeId v = 0; v < view.num_nodes(); ++v) row[v] = scratch.distance(v);
  return row;
}

/// Delete `count` random alive nodes without healing.
void fragment(Graph& g, std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto alive = g.alive_nodes();
    g.delete_node(alive[static_cast<std::size_t>(rng.below(alive.size()))]);
  }
}

/// Point queries from `src` to every alive node must equal the row.
/// Returns the mismatch count; `unreachable` counts the disconnected
/// pairs checked.
std::size_t point_mismatches(const FlatView& view, NodeId src,
                             TraversalScratch& scratch,
                             TraversalScratch& ref_scratch,
                             std::size_t& unreachable) {
  const auto want = full_bfs_row(view, src, ref_scratch);
  std::size_t bad = 0;
  for (NodeId v : view.alive_nodes()) {
    const std::uint32_t got = point_distance(view, src, v, scratch);
    if (got != want[v]) {
      ++bad;
      ADD_FAILURE() << "src=" << src << " dst=" << v << " got=" << got
                    << " want=" << want[v];
    }
    unreachable += want[v] == kUnreachable;
  }
  return bad;
}

TEST(PointDistance, MatchesFullBfsOnFragmentedBa) {
  Rng rng(41);
  Graph g = barabasi_albert(400, 2, rng);
  fragment(g, 160, rng);
  const FlatView& view = g.flat_view();
  Components comps;
  TraversalScratch scratch;
  TraversalScratch ref_scratch;
  connected_components(view, ref_scratch, comps);
  ASSERT_GE(comps.count(), 4u);  // several components, isolated nodes too

  std::size_t bad = 0;
  std::size_t unreachable = 0;
  const auto& alive = view.alive_nodes();
  for (std::size_t i = 0; i < alive.size(); i += 3) {
    bad += point_mismatches(view, alive[i], scratch, ref_scratch,
                            unreachable);
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_GT(unreachable, 0u);
}

TEST(PointDistance, SelfAdjacentAndHubEndpoints) {
  Rng rng(8);
  const Graph g = barabasi_albert(600, 2, rng);
  const FlatView& view = g.flat_view();
  TraversalScratch scratch;
  TraversalScratch ref_scratch;
  for (NodeId v : view.alive_nodes()) {
    ASSERT_EQ(point_distance(view, v, v, scratch), 0u) << v;
    ASSERT_TRUE(scratch.visited().empty());
  }
  for (NodeId v = 0; v < 40; ++v) {
    for (NodeId u : view.neighbors(v)) {
      ASSERT_EQ(point_distance(view, v, u, scratch), 1u) << v << "-" << u;
      ASSERT_EQ(point_distance(view, u, v, scratch), 1u) << u << "-" << v;
    }
  }
  // The two largest hubs: every query from either side of them, and the
  // hub-to-hub pair, where both frontiers start expensive.
  std::vector<NodeId> by_degree = view.alive_nodes();
  std::sort(by_degree.begin(), by_degree.end(), [&](NodeId a, NodeId b) {
    return view.degree(a) > view.degree(b);
  });
  const NodeId hub = by_degree[0];
  const NodeId second = by_degree[1];
  std::size_t unreachable = 0;
  EXPECT_EQ(point_mismatches(view, hub, scratch, ref_scratch, unreachable),
            0u);
  EXPECT_EQ(
      point_mismatches(view, second, scratch, ref_scratch, unreachable), 0u);
  EXPECT_EQ(unreachable, 0u);  // BA is connected
  const auto from_leaf = full_bfs_row(view, by_degree.back(), ref_scratch);
  EXPECT_EQ(point_distance(view, by_degree.back(), hub, scratch),
            from_leaf[hub]);
  EXPECT_EQ(point_distance(view, hub, second, scratch),
            full_bfs_row(view, hub, ref_scratch)[second]);
}

TEST(PointDistance, SnapshotHandlesDeadAndOutOfRangeEndpoints) {
  Rng rng(17);
  Graph g = barabasi_albert(200, 2, rng);
  fragment(g, 70, rng);
  SnapshotStore store;
  store.publish(g);
  SnapshotStore::Reader reader = store.make_reader();
  SnapshotStore::Pin pin = reader.pin();
  TraversalScratch scratch;
  TraversalScratch ref_scratch;

  const auto alive = g.alive_nodes();
  NodeId dead = 0;
  while (g.alive(dead)) ++dead;
  const auto out_of_range = static_cast<NodeId>(g.num_nodes());
  for (NodeId v : {alive.front(), alive.back()}) {
    EXPECT_FALSE(pin->distance(dead, v, scratch).has_value());
    EXPECT_FALSE(pin->distance(v, dead, scratch).has_value());
    EXPECT_FALSE(pin->distance(out_of_range, v, scratch).has_value());
    EXPECT_FALSE(pin->distance(v, out_of_range, scratch).has_value());
    EXPECT_EQ(pin->distance(v, v, scratch).value_or(kUnreachable), 0u);
  }
  EXPECT_FALSE(pin->distance(dead, dead, scratch).has_value());
  EXPECT_FALSE(pin->distance(out_of_range, out_of_range, scratch).has_value());

  // Alive pairs: the CSR answer equals the full BFS, and its
  // reachability equals the label-based connected() it cross-checks.
  std::size_t unreachable = 0;
  for (std::size_t i = 0; i < alive.size(); i += 5) {
    const NodeId u = alive[i];
    const auto want = full_bfs_row(pin->view(), u, ref_scratch);
    for (NodeId v : alive) {
      const auto got = pin->distance(u, v, scratch);
      ASSERT_EQ(got.has_value(), pin->connected(u, v)) << u << "-" << v;
      ASSERT_EQ(got.value_or(kUnreachable), want[v]) << u << "-" << v;
      unreachable += !got.has_value();
    }
  }
  EXPECT_GT(unreachable, 0u);
}

TEST(PointDistance, EpochWrapInterleavedWithFullTraversals) {
  // One scratch for everything: point queries (two stamp arrays) and
  // full traversals / component labelling (one) advance the same 8-bit
  // epoch. A query u->v leaves v's half of the search stamped in the
  // destination-side array; the reverse query v->u then starts inside
  // that region. Sweeping the number of full traversals between the two
  // past 255 lands the reverse query on the first one's epoch value,
  // which reads correctly only if the wrap cleared both stamp arrays.
  const Graph g = grid_graph(8, 8);
  const FlatView& view = g.flat_view();
  const auto& alive = view.alive_nodes();
  const NodeId corner = 0;
  const NodeId far = 63;  // the opposite corner
  Rng rng(23);
  TraversalScratch scratch;
  Components comps;
  std::size_t queries = 0;
  std::size_t bad = 0;
  const auto check = [&](NodeId u, NodeId v, std::uint32_t got) {
    bfs_distances(view, u, scratch);
    ++queries;
    if (got != scratch.distance(v)) {
      ++bad;
      ADD_FAILURE() << u << "-" << v << " got=" << got
                    << " want=" << scratch.distance(v);
    }
  };
  for (std::size_t k = 0; k < 300; ++k) {
    const NodeId u = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const NodeId v = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const std::uint32_t there = point_distance(view, corner, far, scratch);
    const std::uint32_t forth = point_distance(view, u, v, scratch);
    for (std::size_t j = 0; j < k; ++j) {
      if (j % 16 == 0) {
        connected_components(view, scratch, comps);
      } else {
        bfs_distances(view, alive[j % alive.size()], scratch);
      }
    }
    const std::uint32_t back = point_distance(view, far, corner, scratch);
    const std::uint32_t reverse = point_distance(view, v, u, scratch);
    ASSERT_TRUE(scratch.visited().empty());
    check(corner, far, there);
    check(u, v, forth);
    check(far, corner, back);
    check(v, u, reverse);
  }
  EXPECT_GE(queries, 600u);
  EXPECT_EQ(bad, 0u);
}

TEST(PointDistance, ScratchReusedAcrossGrowingGraphs) {
  // The destination-side buffers are sized by the first point query;
  // every larger graph after it must grow them, never read past them.
  TraversalScratch scratch;
  TraversalScratch ref_scratch;
  Rng rng(5);
  std::size_t bad = 0;
  std::size_t unreachable = 0;
  for (const std::size_t n : {6u, 40u, 130u, 700u}) {
    Graph g = barabasi_albert(n, 2, rng);
    fragment(g, n / 4, rng);
    const FlatView& view = g.flat_view();
    const auto& alive = view.alive_nodes();
    for (std::size_t i = 0; i < alive.size(); i += 1 + alive.size() / 8) {
      bad += point_mismatches(view, alive[i], scratch, ref_scratch,
                              unreachable);
    }
  }
  EXPECT_EQ(bad, 0u);
}

}  // namespace
}  // namespace dash::graph
