#include "graph/dynamic_connectivity.h"

#include <utility>

#include "util/check.h"

namespace dash::graph {

DynamicConnectivity::DynamicConnectivity(const Graph& g)
    : g_(&g),
      label_(g.num_nodes(), kInvalidComponent),
      next_(g.num_nodes(), kInvalidNode),
      prev_(g.num_nodes(), kInvalidNode),
      is_seed_(g.num_nodes(), 0),
      visit_epoch_(g.num_nodes(), 0) {
  ++epoch_;
  scan_nodes_.reserve(g.num_alive());
  scan_offsets_.assign(1, 0);
  const NodeId n = static_cast<NodeId>(g.num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    if (g.alive(v)) scan_group(v);
  }
  for (std::size_t i = 0; i + 1 < scan_offsets_.size(); ++i) {
    install(std::span<const NodeId>(scan_nodes_.data() + scan_offsets_[i],
                                    scan_offsets_[i + 1] - scan_offsets_[i]));
  }
}

// ---- labels and size histogram ------------------------------------------

std::uint32_t DynamicConnectivity::new_label() const {
  if (!free_labels_.empty()) {
    const std::uint32_t l = free_labels_.back();
    free_labels_.pop_back();
    return l;
  }
  head_.push_back(kInvalidNode);
  size_.push_back(0);
  label_epoch_.push_back(0);
  return static_cast<std::uint32_t>(head_.size() - 1);
}

void DynamicConnectivity::install(std::span<const NodeId> members) const {
  const std::uint32_t l = new_label();
  NodeId before = members.back();
  for (NodeId u : members) {
    label_[u] = l;
    prev_[u] = before;
    next_[before] = u;
    before = u;
  }
  head_[l] = members.front();
  size_[l] = static_cast<std::uint32_t>(members.size());
  hist_add(members.size());
  ++components_;
}

void DynamicConnectivity::hist_add(std::size_t s) const {
  if (s >= size_count_.size()) size_count_.resize(s + 1, 0);
  ++size_count_[s];
  if (s > largest_) largest_ = s;
}

void DynamicConnectivity::hist_remove(std::size_t s) const {
  DASH_DCHECK(s < size_count_.size() && size_count_[s] > 0);
  --size_count_[s];
  while (largest_ > 0 && size_count_[largest_] == 0) {
    --largest_;
    ++histogram_steps_;
  }
}

// ---- mutation stream ------------------------------------------------------
//
// Size changes add the new size to the histogram before removing the old
// one, so largest_ never has to walk down from a bucket it is about to
// refill: a deletion from the largest component walks one step, a merge
// none.

void DynamicConnectivity::node_added(NodeId v) {
  DASH_CHECK_MSG(v == label_.size(),
                 "node_added out of sync with the graph's id space");
  label_.push_back(kInvalidComponent);
  next_.push_back(kInvalidNode);
  prev_.push_back(kInvalidNode);
  is_seed_.push_back(0);
  visit_epoch_.push_back(0);
  install(std::span<const NodeId>(&v, 1));
}

void DynamicConnectivity::edge_added(NodeId a, NodeId b) {
  std::uint32_t keep = label_[a];
  std::uint32_t gone = label_[b];
  DASH_CHECK_MSG(keep != kInvalidComponent && gone != kInvalidComponent,
                 "edge_added needs alive endpoints");
  if (keep == gone) return;
  if (size_[keep] < size_[gone]) std::swap(keep, gone);
  const std::size_t sk = size_[keep];
  const std::size_t sg = size_[gone];
  hist_add(sk + sg);
  hist_remove(sk);
  hist_remove(sg);

  // Relabel the smaller side, then splice its circular member list into
  // the larger one right after the larger list's head.
  const NodeId first = head_[gone];
  NodeId u = first;
  do {
    label_[u] = keep;
    u = next_[u];
  } while (u != first);
  const NodeId last = prev_[first];
  const NodeId at = head_[keep];
  const NodeId after = next_[at];
  next_[at] = first;
  prev_[first] = at;
  next_[last] = after;
  prev_[after] = last;

  size_[keep] = static_cast<std::uint32_t>(sk + sg);
  size_[gone] = 0;
  head_[gone] = kInvalidNode;
  free_labels_.push_back(gone);
  --components_;
}

void DynamicConnectivity::edge_removed(NodeId a, NodeId b) {
  // Labels cannot split on their own; seed both sides so the next
  // query's re-scan resolves whether the component actually came apart.
  seed(a);
  seed(b);
}

void DynamicConnectivity::drop_alive_member(NodeId v) {
  const std::uint32_t l = label_[v];
  DASH_CHECK_MSG(l != kInvalidComponent && size_[l] > 0,
                 "deleting from an already-empty component");
  const std::size_t s = size_[l];
  if (s == 1) {
    hist_remove(1);
    head_[l] = kInvalidNode;
    free_labels_.push_back(l);
    --components_;
  } else {
    hist_add(s - 1);
    hist_remove(s);
    next_[prev_[v]] = next_[v];
    prev_[next_[v]] = prev_[v];
    if (head_[l] == v) head_[l] = next_[v];
  }
  size_[l] = static_cast<std::uint32_t>(s - 1);
  label_[v] = kInvalidComponent;
}

void DynamicConnectivity::node_removed(NodeId v,
                                       const std::vector<NodeId>& survivors,
                                       bool may_split) {
  drop_alive_member(v);
  if (may_split && survivors.size() >= 2) {
    for (NodeId s : survivors) seed(s);
  } else if (is_seed_[v] && !survivors.empty()) {
    // v backed a pending re-scan; its piece stays whole (certified, or
    // a single survivor), so one survivor inherits the seed duty.
    seed(survivors.front());
  }
  is_seed_[v] = 0;  // dead seeds are skipped at flush anyway
}

void DynamicConnectivity::batch_removed(
    const std::vector<NodeId>& members,
    const std::vector<NodeId>& survivors, bool may_split) {
  bool member_was_seed = false;
  for (NodeId v : members) {
    drop_alive_member(v);
    member_was_seed |= is_seed_[v] != 0;
  }
  if (may_split && survivors.size() >= 2) {
    for (NodeId s : survivors) seed(s);
  } else if (member_was_seed && !survivors.empty()) {
    // A certified batch keeps its piece whole, so one survivor can
    // inherit the seed duty the dead members were carrying.
    seed(survivors.front());
  }
  for (NodeId v : members) is_seed_[v] = 0;
}

// ---- queries ----------------------------------------------------------------

bool DynamicConnectivity::connected() const {
  flush();
  return g_->num_alive() <= 1 || components_ <= 1;
}

std::size_t DynamicConnectivity::component_count() const {
  flush();
  return components_;
}

std::size_t DynamicConnectivity::largest_component() const {
  flush();
  return largest_;
}

bool DynamicConnectivity::same_component(NodeId a, NodeId b) const {
  DASH_CHECK_MSG(g_->alive(a) && g_->alive(b),
                 "same_component needs alive nodes");
  flush();
  return label_[a] == label_[b];
}

std::size_t DynamicConnectivity::component_size(NodeId v) const {
  DASH_CHECK_MSG(g_->alive(v), "component_size needs an alive node");
  flush();
  return size_[label_[v]];
}

const std::vector<std::uint32_t>& DynamicConnectivity::labels() const {
  flush();
  return label_;
}

// ---- lazy re-scan ----------------------------------------------------------

void DynamicConnectivity::seed(NodeId v) {
  if (is_seed_[v]) return;
  is_seed_[v] = 1;
  seeds_.push_back(v);
}

void DynamicConnectivity::scan_group(NodeId s) const {
  if (visit_epoch_[s] == epoch_) return;
  visit_epoch_[s] = epoch_;
  scan_nodes_.push_back(s);
  for (std::size_t i = scan_offsets_.back(); i < scan_nodes_.size(); ++i) {
    for (NodeId u : g_->neighbors(scan_nodes_[i])) {
      if (visit_epoch_[u] != epoch_) {
        visit_epoch_[u] = epoch_;
        scan_nodes_.push_back(u);
      }
    }
  }
  scan_offsets_.push_back(scan_nodes_.size());
}

void DynamicConnectivity::flush() const {
  if (seeds_.empty()) return;
  ++epoch_;

  // One BFS group per piece, discovered from the alive seeds. The
  // invariant in the header guarantees the groups cover every alive
  // member of every label that may be too coarse. Groups live packed in
  // scan_nodes_ -- persistent flat buffers, so the re-scan allocates
  // nothing once warm, matching the zero-alloc traversal engine.
  scan_nodes_.clear();
  scan_offsets_.assign(1, 0);
  for (NodeId s : seeds_) {
    is_seed_[s] = 0;
    if (g_->alive(s)) scan_group(s);
  }
  seeds_.clear();

  // Retire every label the groups touch (all labels must be read before
  // any group is relabelled), then give each group a fresh label. The
  // retire step may walk largest_ down when the largest component was
  // re-scanned; that walk is bounded by the re-scan's own size.
  for (NodeId u : scan_nodes_) {
    const std::uint32_t l = label_[u];
    if (label_epoch_[l] == epoch_) continue;
    label_epoch_[l] = epoch_;
    hist_remove(size_[l]);
    size_[l] = 0;
    head_[l] = kInvalidNode;
    free_labels_.push_back(l);
    --components_;
  }
  for (std::size_t i = 0; i + 1 < scan_offsets_.size(); ++i) {
    install(std::span<const NodeId>(scan_nodes_.data() + scan_offsets_[i],
                                    scan_offsets_[i + 1] - scan_offsets_[i]));
  }

  ++rebuilds_;
  nodes_rescanned_ += scan_nodes_.size();
}

}  // namespace dash::graph
