#include "graph/traversal.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace dash::graph {

void TraversalScratch::begin(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.resize(n, 0);
    dist_.resize(n);
    // One slot of slack: the branchless top-down loop stores
    // queue[tail] unconditionally, so a stale edge check after the
    // final node is discovered touches (but never keeps) index n.
    frontier_.resize(n + 1);
    frontier_bits_.resize((n + 63) / 64, 0);
    unvisited_.resize(n);
  }
  if (++epoch_ == 0) {
    // The 8-bit epoch wrapped: one wholesale clear every 255
    // traversals, O(n)/255 amortized per call.
    std::fill(stamp_.begin(), stamp_.end(), std::uint8_t{0});
    std::fill(dst_stamp_.begin(), dst_stamp_.end(), std::uint8_t{0});
    epoch_ = 1;
  }
  visited_count_ = 0;
}

// ---- flat engine -----------------------------------------------------

std::size_t bfs_distances(const FlatView& view, NodeId src,
                          TraversalScratch& scratch) {
  scratch.begin(view.num_nodes());
  auto* dist = scratch.dist_.data();
  auto* stamp = scratch.stamp_.data();
  auto* queue = scratch.frontier_.data();
  const std::uint8_t epoch = scratch.epoch_;

  // Level-synchronous, direction-optimizing loop (Beamer's hybrid):
  // sparse frontiers expand top-down (scan the frontier's adjacency,
  // one byte-sized random load per edge); once the frontier holds more
  // than a quarter of the unvisited remainder -- the dense middle
  // levels of a small-diameter graph, where almost every top-down
  // check hits an already-visited node -- the level flips bottom-up:
  // sweep the still-unvisited ids and stop at the first neighbor on
  // the frontier. Frontier membership is a bitmap (n/8 bytes,
  // L1-resident; each level clears exactly the bits it set), and the
  // candidates come from a compacting pool of unvisited alive ids, so
  // consecutive bottom-up levels only touch the shrinking remainder.
  // Either way each level appends its nodes to the queue, so distances
  // are exact and visit order stays nondecreasing in depth.
  std::size_t tail = 0;
  stamp[src] = epoch;
  dist[src] = 0;
  queue[tail++] = src;
  std::size_t level_start = 0;
  std::uint32_t depth = 0;
  std::size_t unvisited = view.num_alive() - 1;
  auto* pool = scratch.unvisited_.data();
  std::size_t pool_size = 0;
  bool pool_ready = false;
  while (level_start < tail) {
    const std::size_t level_end = tail;
    const std::uint32_t child_depth = depth + 1;
    if (level_end - level_start > unvisited / 4) {
      auto* bits = scratch.frontier_bits_.data();
      for (std::size_t i = level_start; i < level_end; ++i) {
        const NodeId v = queue[i];
        bits[v >> 6] |= std::uint64_t{1} << (v & 63);
      }
      const auto probe = [&](NodeId u) {
        for (NodeId w : view.neighbors(u)) {
          if ((bits[w >> 6] >> (w & 63)) & 1) {
            stamp[u] = epoch;
            dist[u] = child_depth;
            queue[tail++] = u;
            return true;
          }
        }
        return false;
      };
      std::size_t kept = 0;
      if (!pool_ready) {
        // First bottom-up level: build the pool and probe in one sweep.
        if (view.num_alive() == view.num_nodes()) {
          // Fully-alive graph: scan the stamps eight at a time (SWAR
          // zero-byte trick on stamp ^ epoch) so the majority-visited
          // entries cost one word load instead of one mispredicted
          // branch each; only genuinely unvisited ids reach probe().
          // Visit order matches the per-id loop below exactly.
          const std::uint64_t bcast = 0x0101010101010101ull * epoch;
          const std::size_t nwords = view.num_nodes() / 8;
          for (std::size_t wi = 0; wi < nwords; ++wi) {
            std::uint64_t x;
            std::memcpy(&x, stamp + wi * 8, 8);
            x ^= bcast;  // zero byte <=> visited this epoch
            std::uint64_t m = (((x | 0x8080808080808080ull) -
                                0x0101010101010101ull) |
                               x) &
                              0x8080808080808080ull;
            while (m) {
              const unsigned byte =
                  static_cast<unsigned>(__builtin_ctzll(m)) >> 3;
              m &= m - 1;
              const NodeId u = static_cast<NodeId>(wi * 8 + byte);
              if (!probe(u)) pool[kept++] = u;
            }
          }
          for (NodeId u = static_cast<NodeId>(nwords * 8);
               u < view.num_nodes(); ++u) {
            if (stamp[u] != epoch && !probe(u)) pool[kept++] = u;
          }
        } else {
          for (NodeId u : view.alive_nodes()) {
            if (stamp[u] == epoch) continue;
            if (!probe(u)) pool[kept++] = u;
          }
        }
        pool_ready = true;
      } else {
        for (std::size_t i = 0; i < pool_size; ++i) {
          const NodeId u = pool[i];
          if (stamp[u] == epoch) continue;  // settled top-down since
          if (!probe(u)) pool[kept++] = u;
        }
      }
      pool_size = kept;
      for (std::size_t i = level_start; i < level_end; ++i) {
        const NodeId v = queue[i];
        bits[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
      }
    } else {
      // Branchless discovery: top-down only runs on levels where a
      // large fraction of edge checks discover (the dense wasteful
      // levels flip bottom-up), which makes the "seen before?" branch
      // maximally unpredictable. Unconditional idempotent stores + a
      // cmov'd dist and a `tail += fresh` append trade a few extra
      // uops for zero mispredicts; discovery order is unchanged.
      for (std::size_t i = level_start; i < level_end; ++i) {
        for (NodeId u : view.neighbors(queue[i])) {
          const bool fresh = stamp[u] != epoch;
          stamp[u] = epoch;
          dist[u] = fresh ? child_depth : dist[u];
          queue[tail] = u;
          tail += fresh;
        }
      }
    }
    unvisited -= tail - level_end;
    if (unvisited == 0) break;  // nothing left to discover
    level_start = level_end;
    ++depth;
  }
  scratch.visited_count_ = tail;
  return tail;
}

std::uint32_t point_distance(const FlatView& view, NodeId src, NodeId dst,
                             TraversalScratch& scratch) {
  const std::size_t n = view.num_nodes();
  scratch.begin(n);  // also empties visited(): a point query exposes none
  if (src == dst) return 0;
  if (scratch.dst_stamp_.size() < n) {
    scratch.dst_stamp_.resize(n, 0);
    scratch.dst_dist_.resize(n);
    scratch.dst_frontier_.resize(n);
  }
  const std::uint8_t epoch = scratch.epoch_;

  // One BFS per endpoint, each a queue of whole levels: the current
  // frontier is queue[level_start, tail) at distance `depth`, and
  // `degree` is its total degree, i.e. the edge checks its next
  // expansion costs.
  struct Side {
    std::uint8_t* stamp;
    std::uint32_t* dist;
    NodeId* queue;
    std::size_t level_start = 0;
    std::size_t tail = 1;
    std::uint32_t depth = 0;
    std::size_t degree = 0;
  };
  Side from_src{scratch.stamp_.data(), scratch.dist_.data(),
                scratch.frontier_.data()};
  Side from_dst{scratch.dst_stamp_.data(), scratch.dst_dist_.data(),
                scratch.dst_frontier_.data()};
  from_src.stamp[src] = from_dst.stamp[dst] = epoch;
  from_src.dist[src] = from_dst.dist[dst] = 0;
  from_src.queue[0] = src;
  from_dst.queue[0] = dst;
  from_src.degree = view.degree(src);
  from_dst.degree = view.degree(dst);

  // Expand one whole level of the cheaper side at a time. No node is
  // ever claimed by both sides, so until the first meeting the two
  // searched balls B(src, ds) and B(dst, dd) are disjoint and the
  // distance is at least ds + dd + 1; the first edge from a level-ds
  // node into the other side closes a path of length ds + 1 + dd' with
  // dd' <= dd. Hence the first meeting is exact and the level need not
  // finish. A side whose level discovers nothing has exhausted its
  // component without meeting the other: the endpoints are disconnected.
  for (;;) {
    const bool src_side = from_src.degree <= from_dst.degree;
    Side& me = src_side ? from_src : from_dst;
    const Side& other = src_side ? from_dst : from_src;
    const std::size_t level_end = me.tail;
    const std::uint32_t next = me.depth + 1;
    std::size_t degree = 0;
    for (std::size_t i = me.level_start; i < level_end; ++i) {
      // Serving snapshots are mostly cold when a query arrives; loading
      // the adjacency a few frontier nodes ahead overlaps those misses.
      if (i + 4 < level_end) view.prefetch_neighbors(me.queue[i + 4]);
      for (NodeId y : view.neighbors(me.queue[i])) {
        if (me.stamp[y] == epoch) continue;
        if (other.stamp[y] == epoch) return next + other.dist[y];
        me.stamp[y] = epoch;
        me.dist[y] = next;
        me.queue[me.tail++] = y;
        degree += view.degree(y);
      }
    }
    if (me.tail == level_end) return kUnreachable;
    me.level_start = level_end;
    me.depth = next;
    me.degree = degree;
  }
}

bool is_connected(const FlatView& view, TraversalScratch& scratch) {
  const std::size_t alive = view.num_alive();
  if (alive <= 1) return true;
  return bfs_distances(view, view.alive_nodes().front(), scratch) == alive;
}

std::size_t Components::largest() const {
  if (sizes.empty()) return 0;
  return *std::max_element(sizes.begin(), sizes.end());
}

void connected_components(const FlatView& view, TraversalScratch& scratch,
                          Components& out) {
  const std::size_t n = view.num_nodes();
  out.label.assign(n, kInvalidComponent);
  out.sizes.clear();
  scratch.begin(n);  // only the frontier buffer is used here
  auto* queue = scratch.frontier_.data();
  for (NodeId root : view.alive_nodes()) {
    if (out.label[root] != kInvalidComponent) continue;
    const auto comp = static_cast<std::uint32_t>(out.sizes.size());
    std::size_t head = 0;
    std::size_t tail = 0;
    out.label[root] = comp;
    queue[tail++] = root;
    while (head < tail) {
      const NodeId v = queue[head++];
      for (NodeId u : view.neighbors(v)) {
        if (out.label[u] == kInvalidComponent) {
          out.label[u] = comp;
          queue[tail++] = u;
        }
      }
    }
    out.sizes.push_back(static_cast<std::uint32_t>(tail));
  }
}

// ---- legacy wrappers -------------------------------------------------

namespace {
/// One warm scratch per thread serves every legacy-signature call, so
/// the historical API rides the zero-alloc engine too.
TraversalScratch& local_scratch() {
  thread_local TraversalScratch scratch;
  return scratch;
}
}  // namespace

bool is_connected(const Graph& g) {
  return is_connected(g.flat_view(), local_scratch());
}

Components connected_components(const Graph& g) {
  Components out;
  connected_components(g.flat_view(), local_scratch(), out);
  return out;
}

std::vector<std::uint32_t> all_pairs_distances(const Graph& g) {
  const std::size_t n = g.num_nodes();
  const FlatView& view = g.flat_view();
  TraversalScratch& scratch = local_scratch();
  std::vector<std::uint32_t> mat(n * n, kUnreachable);
  for (NodeId v : view.alive_nodes()) {
    bfs_distances(view, v, scratch);
    auto* row = mat.data() + static_cast<std::size_t>(v) * n;
    for (NodeId u : scratch.visited()) row[u] = scratch.distance(u);
  }
  return mat;
}

}  // namespace dash::graph
