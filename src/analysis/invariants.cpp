#include "analysis/invariants.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "graph/dynamic_connectivity.h"
#include "graph/traversal.h"

namespace dash::analysis {

Check check_connectivity(const Graph& g) {
  if (graph::is_connected(g)) return Check::pass();
  const auto comps = graph::connected_components(g);
  return Check::fail("graph disconnected: " +
                     std::to_string(comps.count()) + " components over " +
                     std::to_string(g.num_alive()) + " alive nodes");
}

Check check_forest(const Graph& g, const HealingState& state) {
  if (state.healing_graph_is_forest(g)) return Check::pass();
  return Check::fail("healing graph G' contains a cycle");
}

Check check_component_ids(const Graph& g, const HealingState& state) {
  std::vector<char> visited(g.num_nodes(), 0);
  std::unordered_set<std::uint64_t> seen_ids;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (!g.alive(root) || visited[root]) continue;
    const auto comp = state.healing_component(g, root);
    const std::uint64_t id = state.component_id(root);
    for (NodeId v : comp) {
      visited[v] = 1;
      if (state.component_id(v) != id) {
        return Check::fail("component of node " + std::to_string(root) +
                           " has mixed ids");
      }
    }
    if (!seen_ids.insert(id).second) {
      return Check::fail("component id " + std::to_string(id) +
                         " appears in two distinct G'-components");
    }
  }
  return Check::pass();
}

Check check_rem_bound(const Graph& g, const HealingState& state) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    const auto rem = static_cast<double>(state.rem(g, v));
    const double bound = std::exp2(static_cast<double>(state.delta(v)) / 2.0);
    if (rem + 1e-9 < bound) {
      return Check::fail("rem(" + std::to_string(v) + ")=" +
                         std::to_string(rem) + " < 2^(delta/2)=" +
                         std::to_string(bound) + " with delta=" +
                         std::to_string(state.delta(v)));
    }
  }
  return Check::pass();
}

Check check_weight_conservation(const Graph& g, const HealingState& state,
                                std::uint64_t expected_total) {
  const std::uint64_t total = state.total_alive_weight(g);
  if (total == expected_total) return Check::pass();
  return Check::fail("alive weight " + std::to_string(total) +
                     " != expected " + std::to_string(expected_total));
}

Check check_locality(const HealAction& action, const DeletionContext& ctx) {
  const auto& nbrs = ctx.neighbors_g;  // sorted by Graph invariant
  auto is_neighbor = [&nbrs](NodeId u) {
    return std::binary_search(nbrs.begin(), nbrs.end(), u);
  };
  for (auto [a, b] : action.new_graph_edges) {
    if (!is_neighbor(a) || !is_neighbor(b)) {
      return Check::fail("healing edge {" + std::to_string(a) + "," +
                         std::to_string(b) +
                         "} joins non-neighbors of the deleted node");
    }
  }
  return Check::pass();
}

Check check_healing_subgraph(const Graph& g, const HealingState& state) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    for (NodeId u : state.forest_neighbors(v)) {
      if (!g.alive(u) || !g.has_edge(v, u)) {
        return Check::fail("healing edge {" + std::to_string(v) + "," +
                           std::to_string(u) + "} is not in the network");
      }
    }
  }
  return Check::pass();
}

Check check_delta_consistency(const Graph& g, const HealingState& state) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    if (state.delta(v) != state.raw_degree_increase(g, v)) {
      return Check::fail(
          "delta(" + std::to_string(v) + ")=" +
          std::to_string(state.delta(v)) + " != deg_now - deg_init = " +
          std::to_string(state.raw_degree_increase(g, v)));
    }
  }
  return Check::pass();
}

Check check_delta_bound(const HealingState& state, std::size_t n) {
  const double bound = 2.0 * std::log2(static_cast<double>(n));
  const auto max_delta = static_cast<double>(state.max_delta_ever());
  if (max_delta <= bound + 1e-9) return Check::pass();
  return Check::fail("max delta " + std::to_string(max_delta) +
                     " exceeds 2 log2 n = " + std::to_string(bound));
}

Check check_component_tracker(const Graph& g,
                              const graph::DynamicConnectivity& tracker) {
  const graph::Components truth = graph::connected_components(g);
  if (tracker.component_count() != truth.count()) {
    return Check::fail("tracker counts " +
                       std::to_string(tracker.component_count()) +
                       " components, BFS counts " +
                       std::to_string(truth.count()));
  }
  if (tracker.largest_component() != truth.largest()) {
    return Check::fail("tracker largest component " +
                       std::to_string(tracker.largest_component()) +
                       " != BFS largest " + std::to_string(truth.largest()));
  }
  // Each BFS class must sit inside one tracker class with the right
  // size; with equal class counts that makes the partitions identical.
  std::vector<NodeId> rep(truth.count(), graph::kInvalidNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    const std::uint32_t label = truth.label[v];
    if (rep[label] == graph::kInvalidNode) {
      rep[label] = v;
      if (tracker.component_size(v) != truth.sizes[label]) {
        return Check::fail("tracker sizes component of node " +
                           std::to_string(v) + " as " +
                           std::to_string(tracker.component_size(v)) +
                           ", BFS as " + std::to_string(truth.sizes[label]));
      }
    } else if (!tracker.same_component(v, rep[label])) {
      return Check::fail("tracker splits BFS-connected nodes " +
                         std::to_string(v) + " and " +
                         std::to_string(rep[label]));
    }
  }
  return Check::pass();
}

}  // namespace dash::analysis
