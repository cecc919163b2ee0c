#include "graph/traversal.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(5);
  TraversalScratch scratch;
  EXPECT_EQ(bfs_distances(g.flat_view(), 0, scratch), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(scratch.distance(v), v);
}

TEST(Bfs, UnreachableAndDeadNodes) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  TraversalScratch scratch;
  EXPECT_EQ(bfs_distances(g.flat_view(), 0, scratch), 2u);
  EXPECT_EQ(scratch.distance(1), 1u);
  EXPECT_EQ(scratch.distance(2), kUnreachable);
  g.delete_node(1);
  EXPECT_EQ(bfs_distances(g.flat_view(), 0, scratch), 1u);
  EXPECT_EQ(scratch.distance(1), kUnreachable);
}

TEST(Bfs, PairDistanceEarlyExit) {
  const Graph g = cycle_graph(10);
  TraversalScratch scratch;
  EXPECT_EQ(point_distance(g.flat_view(), 0, 5, scratch), 5u);
  EXPECT_EQ(point_distance(g.flat_view(), 0, 9, scratch), 1u);
  EXPECT_EQ(point_distance(g.flat_view(), 3, 3, scratch), 0u);
}

TEST(Bfs, PairDistanceDisconnected) {
  Graph g(3);
  g.add_edge(0, 1);
  TraversalScratch scratch;
  EXPECT_EQ(point_distance(g.flat_view(), 0, 2, scratch), kUnreachable);
}

TEST(Connectivity, DetectsDisconnect) {
  Graph g = path_graph(5);
  EXPECT_TRUE(is_connected(g));
  g.delete_node(2);
  EXPECT_FALSE(is_connected(g));
}

TEST(Connectivity, TrivialCases) {
  Graph empty(0);
  EXPECT_TRUE(is_connected(empty));
  Graph one(1);
  EXPECT_TRUE(is_connected(one));
  Graph two(2);
  EXPECT_FALSE(is_connected(two));
}

TEST(Components, LabelsAndSizes) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count(), 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comps.largest(), 3u);
  EXPECT_EQ(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[0], comps.label[3]);
  EXPECT_EQ(comps.sizes[comps.label[5]], 1u);
}

TEST(Components, SkipsDeadNodes) {
  Graph g = path_graph(3);
  g.delete_node(1);
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count(), 2u);
  EXPECT_EQ(comps.label[1], kInvalidComponent);
}

TEST(AllPairs, MatchesSingleSource) {
  dash::util::Rng rng(99);
  const Graph g = barabasi_albert(40, 2, rng);
  const auto mat = all_pairs_distances(g);
  TraversalScratch scratch;
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    bfs_distances(g.flat_view(), v, scratch);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(mat[v * g.num_nodes() + u], scratch.distance(u));
    }
  }
}

TEST(AllPairs, DeadRowsUnreachable) {
  Graph g = path_graph(3);
  g.delete_node(0);
  const auto mat = all_pairs_distances(g);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(mat[0 * 3 + u], kUnreachable);
  EXPECT_EQ(mat[1 * 3 + 2], 1u);
}

}  // namespace
}  // namespace dash::graph
