// flat_view.h -- CSR-style snapshot of a Graph's alive subgraph: one
// flat array of per-vertex {offset, degree} rows plus one packed
// neighbor array, the cache-friendly layout every hot traversal runs on.
//
// A FlatView is a *snapshot*: it is stamped with the generation of the
// Graph it was built from and must be refreshed after any mutation. The
// canonical instance is the one Graph itself caches (Graph::flat_view()
// refreshes lazily on generation mismatch), so repeated traversals
// between mutations -- an APSP stretch sample, the invariant battery,
// a components labelling -- all share a single refresh.
//
// The view mirrors the graph's slab layout (graph.h): per-vertex
// {offset, degree} descriptors into an edges array shaped like the
// graph's neighbor slab. That makes *delta patching* sound: refresh()
// replays the graph's touched-vertex log and re-copies only the blocks
// of vertices that changed since the view last synced -- a vertex's
// block can only move, grow, or be recycled by operations that log that
// vertex, so every untouched mirror segment is still exact. When the
// log window no longer covers the view (first build, a different graph
// instance, a compacted log) or the touched set exceeds
// kPatchFractionLimit of the id space, refresh() falls back to a full
// O(n + slab) rebuild; both paths are counted so benches can report the
// split.
//
// Reads of a *fresh* view are safe from any number of threads (the
// parallel stretch path hands one view to every worker); the lazy
// refresh itself is not synchronized, so ensure freshness (call
// Graph::flat_view() once) before fanning out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace dash::graph {

class Graph;

class FlatView {
 public:
  /// Touched fraction of the id space beyond which refresh() prefers
  /// one full rebuild over per-vertex patching.
  static constexpr double kPatchFractionLimit = 0.25;

  /// True when this snapshot was built from a graph at `generation`.
  bool matches(std::uint64_t generation) const {
    return valid_ && generation_ == generation;
  }

  /// Rebuild the mirror from g's current state unconditionally.
  /// O(n + slab); buffers are reused, so a long-lived view allocates
  /// only when the graph outgrows it.
  void rebuild(const Graph& g);

  /// Bring the mirror up to date: patch only the vertices g's touched
  /// log names since the last sync when the log window allows it, else
  /// fall back to rebuild(). The cheap path is O(touched + alive-set
  /// edits) -- churn rounds touch a tiny fraction of a large graph.
  void refresh(const Graph& g);

  /// Node-id space of the snapshot (alive + dead, like Graph).
  std::size_t num_nodes() const { return rows_.size(); }
  std::size_t num_alive() const { return alive_.size(); }

  /// Packed sorted neighbors of v (empty for dead nodes).
  std::span<const NodeId> neighbors(NodeId v) const {
    const Row row = rows_[v];
    return {edges_.data() + row.offset, row.degree};
  }

  /// Total directed adjacency entries (2m) -- the BFS direction
  /// heuristic budgets against it.
  std::size_t num_edge_entries() const { return edge_entries_; }

  std::size_t degree(NodeId v) const { return rows_[v].degree; }

  /// Start loading v's neighbor list ahead of a neighbors(v) call, so a
  /// traversal over a cold view overlaps its adjacency misses.
  void prefetch_neighbors(NodeId v) const {
    __builtin_prefetch(edges_.data() + rows_[v].offset);
  }

  /// Alive node ids, ascending -- cached at refresh, so per-sample
  /// consumers (the stretch tracker) stop re-allocating the list.
  const std::vector<NodeId>& alive_nodes() const { return alive_; }

  // ---- refresh telemetry ---------------------------------------------

  /// Full O(n + slab) rebuilds this view has performed.
  std::size_t full_rebuilds() const { return full_rebuilds_; }
  /// Delta-patched refreshes (the cheap path).
  std::size_t patched_refreshes() const { return patched_refreshes_; }
  /// Distinct vertices re-mirrored across all patched refreshes.
  std::size_t vertices_patched() const { return vertices_patched_; }

 private:
  /// Patch against g's touched log; false when the window does not
  /// cover this view or the touched set is too large.
  bool try_patch(const Graph& g);

  bool valid_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t graph_uid_ = 0;  ///< instance the mirror tracks
  std::uint64_t log_seq_ = 0;    ///< touched-log position last synced
  /// A vertex's slab offset and degree side by side: neighbors(v) on a
  /// cold view then misses once, not twice, and a degree(v) read
  /// already loads the offset its later expansion needs.
  struct Row {
    std::uint32_t offset;
    std::uint32_t degree;
  };
  std::vector<Row> rows_;
  std::vector<NodeId> edges_;  ///< slab mirror (gaps where blocks are free)
  std::size_t edge_entries_ = 0;  ///< 2m, maintained incrementally
  std::vector<NodeId> alive_;     ///< alive ids, ascending

  // Patch scratch (persisted so warm refreshes allocate nothing).
  std::vector<std::uint64_t> stamp_;
  std::uint64_t stamp_epoch_ = 0;
  std::vector<NodeId> touched_scratch_;
  std::vector<NodeId> died_scratch_;
  std::vector<NodeId> born_scratch_;
  std::vector<NodeId> alive_scratch_;

  std::size_t full_rebuilds_ = 0;
  std::size_t patched_refreshes_ = 0;
  std::size_t vertices_patched_ = 0;
};

}  // namespace dash::graph
