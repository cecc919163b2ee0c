// metrics.h -- static degree/size metrics of the alive subgraph.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dash::graph {

/// Maximum degree over alive nodes (0 for an empty graph).
std::size_t max_degree(const Graph& g);

/// Node id attaining the maximum degree (lowest id wins ties);
/// kInvalidNode for an empty graph.
NodeId argmax_degree(const Graph& g);

/// The hub order: degree descending, then id ascending -- a total
/// order, so sorting or selecting by it lands the same nodes whatever
/// the input permutation.
inline bool hub_before(const Graph& g, NodeId a, NodeId b) {
  if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
  return a < b;
}

/// A uniformly random alive node (one rng.below(num_alive) draw over
/// the alive ids in id order); kInvalidNode, with no draw, for an empty
/// graph.
NodeId uniform_alive(const Graph& g, dash::util::Rng& rng);

/// Mean degree over alive nodes (0 for an empty graph).
double average_degree(const Graph& g);

/// histogram[d] = number of alive nodes with degree d.
std::vector<std::size_t> degree_histogram(const Graph& g);

}  // namespace dash::graph
