#include "graph/metrics.h"

namespace dash::graph {

std::size_t max_degree(const Graph& g) {
  std::size_t best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.alive(v)) best = std::max(best, g.degree(v));
  }
  return best;
}

NodeId argmax_degree(const Graph& g) {
  NodeId best = kInvalidNode;
  std::size_t best_deg = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    if (best == kInvalidNode || g.degree(v) > best_deg) {
      best = v;
      best_deg = g.degree(v);
    }
  }
  return best;
}

NodeId uniform_alive(const Graph& g, dash::util::Rng& rng) {
  const auto alive = g.alive_nodes();
  if (alive.empty()) return kInvalidNode;
  return alive[static_cast<std::size_t>(rng.below(alive.size()))];
}

double average_degree(const Graph& g) {
  if (g.num_alive() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_alive());
}

std::vector<std::size_t> degree_histogram(const Graph& g) {
  std::vector<std::size_t> hist;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    const std::size_t d = g.degree(v);
    if (d >= hist.size()) hist.resize(d + 1, 0);
    ++hist[d];
  }
  return hist;
}

}  // namespace dash::graph
