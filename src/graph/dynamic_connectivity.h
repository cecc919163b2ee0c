// dynamic_connectivity.h -- incremental connectivity over a mutating
// Graph, replacing the per-round O(n+m) BFS that connectivity-hungry
// observers used to pay.
//
// The tracker keeps an explicit component label per node (dead nodes
// hold kInvalidComponent), and each label owns an intrusive circular
// member list and an alive-member count. It mirrors the engine's
// mutation stream instead of re-scanning:
//
//   * edge/node insertions merge labels by relabelling the smaller
//     side into the larger (a join's newcomer is a singleton, so
//     attaching it costs O(1));
//   * deletions cannot be expressed as merges, so they follow an
//     amortized rebuild-on-delete path: a deletion whose caller can
//     certify "the survivors stayed mutually connected" (the healing
//     layer proves this through the healing forest: one shared
//     component id => one G'-tree => reconnected, see
//     api::Network::remove) only unlinks the victim from its label's
//     member list; an uncertified deletion also *seeds* a lazy
//     re-scan. The next query runs one BFS over exactly the affected
//     region -- never the whole graph -- and gives each re-scanned
//     group a fresh label.
//
// Cost model: a certified round touching k vertices pays O(k) plus the
// smaller sides of the merges its heal edges perform; an uncertified
// round defers an O(|affected component|) re-scan to the next query.
// Component count and largest-component size are maintained as a size
// histogram, so both are O(1) after the flush, and so are
// same_component() and component_size() (array reads). The flushed
// label array is what SnapshotStore::publish copies into each serving
// snapshot, so a publish never relabels the graph.
//
// Correctness invariant (the differential tests replay thousands of
// randomized schedules against traversal::connected_components to hold
// this): between flushes every label's member set is a union of true
// components, and every label that may be split finer than the tracker
// knows has at least one alive pending seed in each of its true
// components -- so the flush BFS, started from the alive seeds, visits
// every alive member of every stale label.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/traversal.h"

namespace dash::graph {

class DynamicConnectivity {
 public:
  /// Label the components of `g` (one BFS pass over the graph).
  /// The tracker keeps a pointer to `g` and must observe every later
  /// mutation through the methods below, in the order the graph applies
  /// them -- it is the engine's job (api::Network) to guarantee that.
  explicit DynamicConnectivity(const Graph& g);

  // ---- mutation stream ------------------------------------------------

  /// A fresh isolated node was appended (Graph::add_node). `v` must be
  /// the id the graph returned, i.e. ids stay dense.
  void node_added(NodeId v);

  /// Edge {a,b} was inserted between alive nodes. Idempotent for edges
  /// the tracker already considers merged.
  void edge_added(NodeId a, NodeId b);

  /// Edge {a,b} was removed (both endpoints still alive). The possible
  /// component split is resolved lazily by the next query.
  void edge_removed(NodeId a, NodeId b);

  /// Node `v` was deleted; `survivors` is its neighbor set at the
  /// moment of deletion (all still alive). `may_split` = false is the
  /// caller's certificate that the survivors remained mutually
  /// connected without v (the O(1) fast path); true seeds the lazy
  /// re-scan of v's component. With fewer than two survivors no split
  /// is possible and the certificate is irrelevant.
  void node_removed(NodeId v, const std::vector<NodeId>& survivors,
                    bool may_split);

  /// Simultaneous multi-node deletion (the footnote-1 batch protocol):
  /// `survivors` is the union of the batch members' surviving neighbor
  /// sets. `may_split` = false is the caller's certificate that the
  /// survivors are still mutually connected without the batch (same
  /// forest argument as node_removed: truncate any survivor pair's old
  /// path at the first batch member and route through the survivors'
  /// shared component) -- the whole round then costs O(|members|)
  /// with no re-scan. true seeds the lazy re-scan. With fewer
  /// than two survivors the certificate is irrelevant.
  void batch_removed(const std::vector<NodeId>& members,
                     const std::vector<NodeId>& survivors, bool may_split);

  // ---- queries (amortized: flush any pending re-scan first) -----------
  //
  // Const: the flush only settles the lazy re-scan; the answers are
  // fixed by the mutation stream.

  /// All alive nodes form one component (vacuously true for <= 1).
  bool connected() const;

  /// Number of components among alive nodes (0 when none are alive).
  std::size_t component_count() const;

  /// Size of the largest component (0 when no nodes are alive).
  std::size_t largest_component() const;

  /// Both nodes alive and in the same component.
  bool same_component(NodeId a, NodeId b) const;

  /// Size of the component containing alive node v.
  std::size_t component_size(NodeId v) const;

  /// The flushed per-node component labels, indexed by node id over the
  /// graph's whole id space: equal labels <=> same component, dead
  /// nodes hold kInvalidComponent. Labels are not dense (a freed label
  /// is reused later), so compare them, never index by them. The
  /// reference stays valid until the next mutation.
  const std::vector<std::uint32_t>& labels() const;

  // ---- instrumentation ------------------------------------------------

  /// Number of lazy re-scan flushes performed so far.
  std::size_t rebuilds() const { return rebuilds_; }
  /// Total nodes visited across all re-scans (the amortized delete
  /// cost; certified rounds contribute nothing).
  std::size_t nodes_rescanned() const { return nodes_rescanned_; }
  /// Total steps the largest-size walk has taken down through empty
  /// histogram buckets. A deletion or a join costs at most one step;
  /// only a flush that really shrinks the largest component walks
  /// further, and that walk is bounded by the re-scan itself.
  std::size_t histogram_steps() const { return histogram_steps_; }
  /// True while an un-flushed split candidate is queued.
  bool rescan_pending() const { return !seeds_.empty(); }

 private:
  void flush() const;
  void seed(NodeId v);
  /// BFS the alive component of `s` into scan_nodes_ as one more group,
  /// unless this epoch already visited `s`.
  void scan_group(NodeId s) const;
  /// Give `members` (non-empty, distinct, alive) one fresh label.
  void install(std::span<const NodeId> members) const;
  std::uint32_t new_label() const;
  void hist_add(std::size_t s) const;
  void hist_remove(std::size_t s) const;
  /// Shared deletion bookkeeping: drop one alive member from v's label.
  void drop_alive_member(NodeId v);

  const Graph* g_;
  // The lazy re-scan state below is mutable: const queries flush it.
  /// Per node: its label, or kInvalidComponent when dead.
  mutable std::vector<std::uint32_t> label_;
  /// Per node: its neighbours in its label's circular member list.
  mutable std::vector<NodeId> next_;
  mutable std::vector<NodeId> prev_;
  /// Per label: one member (the list's entry point) and the alive
  /// member count; a free label has size 0 and sits in free_labels_.
  mutable std::vector<NodeId> head_;
  mutable std::vector<std::uint32_t> size_;
  mutable std::vector<std::uint32_t> free_labels_;
  /// Histogram of label sizes; largest_ is its maintained maximum.
  mutable std::vector<std::uint32_t> size_count_;
  mutable std::size_t largest_ = 0;
  mutable std::size_t components_ = 0;

  mutable std::vector<NodeId> seeds_;
  mutable std::vector<char> is_seed_;
  /// Epoch-stamped scratch marks (no O(n) clearing per flush).
  mutable std::vector<std::uint64_t> visit_epoch_;
  mutable std::vector<std::uint64_t> label_epoch_;
  mutable std::uint64_t epoch_ = 0;
  /// Re-scan workspace: the BFS packs its groups here (scan_offsets_
  /// delimits them), reused across flushes.
  mutable std::vector<NodeId> scan_nodes_;
  mutable std::vector<std::size_t> scan_offsets_;

  mutable std::size_t rebuilds_ = 0;
  mutable std::size_t nodes_rescanned_ = 0;
  mutable std::size_t histogram_steps_ = 0;
};

}  // namespace dash::graph
