// network.h -- the self-healing network engine: one object that owns
// the graph, the healing state, and the healing strategy, exposes the
// paper's protocol as events (remove / remove_batch / join / run /
// play), and feeds a pluggable Observer pipeline.
//
// Every workload in this repository -- figure grids, the ablations,
// the examples, the schedule-level tests -- drives this engine, almost
// always through a declarative Scenario (api/scenario.h):
//
//   api::Network net(graph::barabasi_albert(256, 2, rng), "dash", rng);
//   api::InvariantObserver inv;
//   net.add_observer(&inv);
//   const api::Metrics m =
//       net.play(api::Scenario::parse("targeted:neighborofmax"), 7);
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/metrics.h"
#include "api/observer.h"
#include "attack/strategy.h"
#include "core/healing_state.h"
#include "core/strategy.h"
#include "graph/dynamic_connectivity.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace dash::api {

class Scenario;
struct PlayOptions;
class ServeHandle;
struct ServeOptions;

struct RunOptions {
  /// Maximum deletions for this run() call (counted across calls; by
  /// default run until <= 1 alive node or the attack stops on its own).
  std::size_t max_deletions = std::numeric_limits<std::size_t>::max();
  /// Stop the run loop once the network disconnects (meaningful for
  /// NoHeal only; healers never disconnect).
  bool stop_when_disconnected = false;
  /// Extra stop condition, evaluated before each round.
  std::function<bool(const Network&)> stop_condition;
};

class Network {
 public:
  /// Owning constructor: takes the initial network, the healing
  /// strategy, and the RNG stream used to draw the healing state's
  /// initial ids (the caller's stream, so graph generation and id
  /// assignment share one seed exactly as the experiments require).
  Network(graph::Graph g, std::unique_ptr<core::HealingStrategy> healer,
          dash::util::Rng& rng);

  /// Owning constructor from a healer spec string ("dash", "capped:2",
  /// ... -- anything in core::healer_registry()) and a bare seed.
  Network(graph::Graph g, const std::string& healer_spec,
          std::uint64_t seed);

  /// Owning constructor resuming from a checkpointed healing state
  /// (core::HealingState::save / graph::write_edge_list): no RNG is
  /// consumed -- the state carries its id assignment -- so re-executing
  /// a recorded event sequence reproduces the original run exactly.
  /// The replay subsystem (replay/play.h) is built on this.
  Network(graph::Graph g, std::unique_ptr<core::HealingStrategy> healer,
          core::HealingState state);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();  // out-of-line: ServeHandle is incomplete here

  // ---- observer pipeline --------------------------------------------

  /// Register a non-owned observer (must outlive the engine's use).
  /// Observers are notified in registration order.
  void add_observer(Observer* obs);

  /// Register an engine-owned observer; returns a reference for later
  /// inspection.
  Observer& add_observer(std::unique_ptr<Observer> obs);

  /// First registered observer whose name() matches, or nullptr. Lets
  /// downstream stages (a SinkObserver wired up by run_suite) find
  /// producers (a StretchObserver from SuiteConfig::configure).
  Observer* find_observer(const std::string& name) const;

  // ---- events -------------------------------------------------------

  /// Delete one alive node and heal. Returns the heal record.
  core::HealAction remove(graph::NodeId v);

  /// Delete a set of nodes *simultaneously* (paper footnote 1) and heal
  /// cluster-wise with the DASH batch protocol -- the only batch
  /// healing the paper defines, applied regardless of the configured
  /// single-deletion healer. Counts as one round. Returns one heal
  /// record per deleted cluster.
  std::vector<core::HealAction> remove_batch(
      const std::vector<graph::NodeId>& batch);

  /// Organic arrival: admit a brand-new node wired to `attach_to`
  /// (all alive). Join edges shift baselines, not deltas. Returns the
  /// new node's id.
  graph::NodeId join(const std::vector<graph::NodeId>& attach_to);

  /// Drive the attacker until it stops, the network is exhausted, or a
  /// stop condition fires; then finish() and return the snapshot.
  Metrics run(attack::AttackStrategy& attacker, const RunOptions& opts = {});

  /// Execute a declarative scenario (api/scenario.h): every phase in
  /// order, drawing all randomness (attack seeds, churn coin flips,
  /// batch victim shuffles) from `rng`; then finish() and return the
  /// snapshot. One seed -> one byte-identical run. `opts` carries
  /// play-level knobs (stop_condition).
  Metrics play(const Scenario& scenario, dash::util::Rng& rng,
               const PlayOptions& opts);
  Metrics play(const Scenario& scenario, dash::util::Rng& rng);

  /// Convenience overloads seeding a fresh stream.
  Metrics play(const Scenario& scenario, std::uint64_t seed,
               const PlayOptions& opts);
  Metrics play(const Scenario& scenario, std::uint64_t seed);

  /// Snapshot metrics and give every observer its on_finish() chance to
  /// contribute (violation, stretch, ...). Idempotent; run() calls it.
  Metrics finish();

  // ---- concurrent serving -------------------------------------------

  /// Start (or fetch) the concurrent read path: an engine-owned
  /// ServeHandle whose internal observer publishes an immutable
  /// snapshot after every mutation event (cadence in ServeOptions), so
  /// reader threads answer connected/distance/largest_component
  /// queries lock-free from a pinned epoch while play()/run() mutate
  /// the graph. Call before starting the scenario; options are fixed
  /// by the first call. See api/serve.h.
  ServeHandle& serve();
  ServeHandle& serve(const ServeOptions& opts);

  /// The serving engine, or nullptr when serve() was never called.
  ServeHandle* serve_handle() { return serve_.get(); }

  /// Broadcast a scenario phase boundary (Observer::on_phase) to the
  /// pipeline. play() calls this before each phase executes; trace
  /// replay (replay/play.h) re-broadcasts the recorded markers so a
  /// replayed run drives its observers identically to the original.
  void notify_phase(const std::string& spec);

  // ---- introspection ------------------------------------------------

  const graph::Graph& graph() const { return g_; }
  const core::HealingState& state() const { return state_; }
  const core::HealingStrategy& healer() const { return *healer_; }
  /// Alive-node count when the engine was constructed (the `n` of the
  /// paper's bounds).
  std::size_t initial_size() const { return initial_size_; }
  /// Deletions so far (== the last RoundEvent's round).
  std::size_t rounds() const { return engine_.deletions; }
  /// False once any *performed* post-heal connectivity check failed
  /// (checks are lazy; see RoundEvent::connected()).
  bool stayed_connected() const { return engine_.stayed_connected; }

  // ---- connectivity / component structure ----------------------------
  //
  // Every answer comes from the engine's incremental
  // graph::DynamicConnectivity tracker, fed by every mutation event:
  // O(alpha) per certified round, one re-scan of the affected component
  // per uncertified round. The invariant battery (InvariantObserver)
  // cross-checks it against a fresh BFS labelling.

  /// Number of components among alive nodes (0 when none are alive).
  std::size_t component_count() const;
  /// Size of the largest component (0 when no nodes are alive).
  std::size_t largest_component() const;
  /// (component count, largest size) in one ask.
  std::pair<std::size_t, std::size_t> component_snapshot() const;

  /// The engine's tracker, for instrumentation (rebuild counters), the
  /// battery's cross-check and the serving snapshots' component labels;
  /// never null.
  const graph::DynamicConnectivity* connectivity_tracker() const {
    return &tracker_;
  }

  /// Engine-maintained metrics refreshed from the healing state, with
  /// no observer contributions (use finish() for those).
  Metrics metrics() const;

 private:
  void attach(Observer* obs);
  void notify_round_begin(std::size_t round);
  void finish_round(RoundEvent& ev);
  /// The healing-forest certificate for one deletion: every survivor
  /// carries the same post-heal component id, i.e. one G'-tree
  /// reconnects them all without the deleted node.
  bool survivors_reconnected(const std::vector<graph::NodeId>& survivors)
      const;

  // Declaration order is construction order: the state reads the graph
  // and the tracker snapshots it.
  graph::Graph g_;
  core::HealingState state_;
  std::unique_ptr<core::HealingStrategy> healer_;
  /// Incremental component tracker, in sync with every engine mutation.
  graph::DynamicConnectivity tracker_;
  std::vector<std::unique_ptr<Observer>> owned_observers_;
  std::vector<Observer*> observers_;

  Metrics engine_;  ///< incrementally maintained fields only
  std::size_t initial_size_ = 0;
  bool last_connected_ = true;
  /// When set (run() with stop_when_disconnected), every round pays for
  /// the connectivity check even if no observer asks.
  bool force_connectivity_checks_ = false;
  /// The concurrent read path (api/serve.h); null until serve().
  std::unique_ptr<ServeHandle> serve_;
};

}  // namespace dash::api
