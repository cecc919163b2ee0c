#include "graph/flat_view.h"

#include <algorithm>

#include "graph/graph.h"

namespace dash::graph {

void FlatView::rebuild(const Graph& g) {
  const std::size_t n = g.num_nodes();
  rows_.resize(n);
  for (NodeId v = 0; v < n; ++v) rows_[v] = {g.offset_[v], g.degree_[v]};
  edges_ = g.slab_;
  edge_entries_ = 2 * g.num_edges();
  alive_.clear();
  alive_.reserve(g.num_alive());
  for (NodeId v = 0; v < n; ++v) {
    if (g.alive(v)) alive_.push_back(v);
  }
  generation_ = g.generation();
  graph_uid_ = g.uid();
  log_seq_ = g.touched_end();
  valid_ = true;
  ++full_rebuilds_;
}

void FlatView::refresh(const Graph& g) {
  if (!try_patch(g)) rebuild(g);
}

bool FlatView::try_patch(const Graph& g) {
  // The patch is sound only against the same graph instance, and only
  // while the log still retains every entry since our last sync.
  if (!valid_ || graph_uid_ != g.uid()) return false;
  if (log_seq_ < g.touched_begin() || log_seq_ > g.touched_end()) {
    return false;
  }
  if (log_seq_ == g.touched_end()) {  // nothing happened since the sync
    generation_ = g.generation();
    return true;
  }

  const std::size_t n = g.num_nodes();
  const std::vector<NodeId>& log = g.touched_log();
  const std::size_t window_begin =
      static_cast<std::size_t>(log_seq_ - g.touched_begin());

  // Dedupe the window with epoch stamps; bail to the full rebuild once
  // the distinct set crosses the patch threshold.
  const std::size_t limit = std::max<std::size_t>(
      64, static_cast<std::size_t>(kPatchFractionLimit *
                                   static_cast<double>(n)));
  if (stamp_.size() < n) stamp_.resize(n, 0);
  ++stamp_epoch_;
  touched_scratch_.clear();
  for (std::size_t i = window_begin; i < log.size(); ++i) {
    const NodeId v = log[i];
    if (stamp_[v] == stamp_epoch_) continue;
    stamp_[v] = stamp_epoch_;
    touched_scratch_.push_back(v);
    if (touched_scratch_.size() > limit) return false;
  }

  // Mirror growth (node ids and the slab only ever extend; resize keeps
  // every untouched prefix byte in place).
  const std::size_t old_n = rows_.size();
  if (n > old_n) rows_.resize(n, Row{0, 0});
  if (edges_.size() < g.slab_.size()) edges_.resize(g.slab_.size());

  died_scratch_.clear();
  born_scratch_.clear();
  for (const NodeId v : touched_scratch_) {
    const bool was_alive =
        v < old_n &&
        std::binary_search(alive_.begin(), alive_.end(), v);
    const bool now_alive = g.alive(v);
    if (was_alive != now_alive) {
      (now_alive ? born_scratch_ : died_scratch_).push_back(v);
    }
    const std::uint32_t old_deg = rows_[v].degree;
    const std::uint32_t new_deg = g.degree_[v];
    const std::uint32_t off = g.offset_[v];
    rows_[v] = {off, new_deg};
    std::copy(g.slab_.begin() + off, g.slab_.begin() + off + new_deg,
              edges_.begin() + off);
    edge_entries_ += new_deg;
    edge_entries_ -= old_deg;
  }

  if (!died_scratch_.empty() || !born_scratch_.empty()) {
    std::sort(died_scratch_.begin(), died_scratch_.end());
    std::sort(born_scratch_.begin(), born_scratch_.end());
    alive_scratch_.clear();
    alive_scratch_.reserve(g.num_alive());
    std::size_t di = 0, bi = 0;
    for (const NodeId v : alive_) {
      while (bi < born_scratch_.size() && born_scratch_[bi] < v) {
        alive_scratch_.push_back(born_scratch_[bi++]);
      }
      if (di < died_scratch_.size() && died_scratch_[di] == v) {
        ++di;
        continue;
      }
      alive_scratch_.push_back(v);
    }
    while (bi < born_scratch_.size()) {
      alive_scratch_.push_back(born_scratch_[bi++]);
    }
    alive_.swap(alive_scratch_);
  }

  generation_ = g.generation();
  log_seq_ = g.touched_end();
  ++patched_refreshes_;
  vertices_patched_ += touched_scratch_.size();
  return true;
}

}  // namespace dash::graph
