// invariants.h -- runtime checkers for every provable property the
// paper states. Tests and (optionally) experiment runs evaluate these
// after each deletion+heal round.
#pragma once

#include <string>

#include "core/healing_state.h"
#include "core/strategy.h"

namespace dash::graph {
class DynamicConnectivity;
}

namespace dash::analysis {

using core::DeletionContext;
using core::Graph;
using core::HealAction;
using core::HealingState;
using graph::NodeId;

/// Result of one invariant check; `violation` is empty iff `ok`.
struct Check {
  bool ok = true;
  std::string violation;

  static Check pass() { return {}; }
  static Check fail(std::string why) { return {false, std::move(why)}; }
};

/// The healed network keeps all alive nodes in one component.
Check check_connectivity(const Graph& g);

/// Lemma 1: the healing graph G' = (V, E') is a forest.
Check check_forest(const Graph& g, const HealingState& state);

/// Component ids are uniform inside each G'-component and distinct
/// across G'-components (what makes UN(v,G) well defined).
Check check_component_ids(const Graph& g, const HealingState& state);

/// Lemma 4: rem(v) >= 2^{delta(v)/2} for every alive v.
/// Only valid for DASH (the potential argument is DASH-specific).
Check check_rem_bound(const Graph& g, const HealingState& state);

/// Lemma 5 / weight conservation: sum of alive weights stays n as long
/// as every deletion had a surviving neighbor to inherit the weight.
Check check_weight_conservation(const Graph& g, const HealingState& state,
                                std::uint64_t expected_total);

/// Locality-awareness: every edge the heal added joins two former
/// neighbors of the deleted node.
Check check_locality(const HealAction& action, const DeletionContext& ctx);

/// Theorem 1: delta(v) <= 2 log2 n for all v (n = initial node count).
Check check_delta_bound(const HealingState& state, std::size_t n);

/// E' is a subgraph of E: every healing edge still exists in the
/// network (deletions detach both sides consistently).
Check check_healing_subgraph(const Graph& g, const HealingState& state);

/// Bookkeeping identity: delta(v) == degree_now(v) - initial_degree(v)
/// for every alive node.
Check check_delta_consistency(const Graph& g, const HealingState& state);

/// Differential check for the incremental connectivity subsystem: the
/// tracker's component structure (count, largest size, and the full
/// alive-node partition) matches a fresh BFS labelling of `g`.
/// InvariantObserver runs it on the engine's tracker with the rest of
/// the battery.
Check check_component_tracker(const Graph& g,
                              const graph::DynamicConnectivity& tracker);

}  // namespace dash::analysis
