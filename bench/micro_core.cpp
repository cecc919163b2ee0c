// micro_core.cpp -- google-benchmark microbenchmarks of the data
// structures on the healing hot path: graph mutation, BFS (full and
// point-to-point), generators, one DASH heal step, full
// schedules per size, the engine's per-round connectivity cost, and the
// incremental-connectivity tracker vs a BFS scan per check.
#include <benchmark/benchmark.h>

#include <optional>
#include <utility>
#include <vector>

#include "analysis/stretch.h"
#include "api/api.h"
#include "graph/dynamic_connectivity.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using dash::core::DeletionContext;
using dash::core::HealingState;
using dash::graph::Graph;
using dash::graph::NodeId;
using dash::util::Rng;

void BM_GraphAddRemoveEdge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Graph g(n);
  Rng rng(1);
  for (auto _ : state) {
    const auto a = static_cast<NodeId>(rng.below(n));
    auto b = static_cast<NodeId>(rng.below(n));
    if (a == b) b = (b + 1) % n;
    if (g.add_edge(a, b)) {
      g.remove_edge(a, b);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GraphAddRemoveEdge)->Arg(1024)->Arg(16384);

void BM_BfsDistances(benchmark::State& state) {
  // The traversal hot path as the stretch/invariant consumers drive it:
  // the graph's cached CSR snapshot plus a reusable scratch -- no
  // allocation per call.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Graph g = dash::graph::barabasi_albert(n, 2, rng);
  const dash::graph::FlatView& view = g.flat_view();
  dash::graph::TraversalScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dash::graph::bfs_distances(view, 0, scratch));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BfsDistances)->Arg(1024)->Arg(8192);

void BM_PointDistance(benchmark::State& state) {
  // One exact point query (the serve read path's distance()): the
  // bidirectional kernel over random alive pairs, drawn up front so
  // the loop times only the search, on one warm scratch.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Graph g = dash::graph::barabasi_albert(n, 2, rng);
  const dash::graph::FlatView& view = g.flat_view();
  const auto& alive = view.alive_nodes();
  std::vector<std::pair<dash::graph::NodeId, dash::graph::NodeId>> pairs(
      4096);
  for (auto& [u, v] : pairs) {
    u = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    v = alive[static_cast<std::size_t>(rng.below(alive.size()))];
  }
  dash::graph::TraversalScratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(
        dash::graph::point_distance(view, u, v, scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointDistance)->Arg(8192)->Arg(100000);

void BM_StretchSample(benchmark::State& state) {
  // One full stretch sample (max+average in a single APSP pass) on a
  // static BA graph with 10% of the nodes deleted and path-healed:
  // the per-sample cost Fig. 10 pays every sampled round. range(1) is
  // the worker count (0 = sequential path).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  Rng rng(11);
  Graph g = dash::graph::barabasi_albert(n, 2, rng);
  const dash::analysis::StretchTracker tracker(g);
  for (std::size_t i = 0; i < n / 10; ++i) {
    const auto alive = g.alive_nodes();
    const auto survivors = g.delete_node(
        alive[static_cast<std::size_t>(rng.below(alive.size()))]);
    for (std::size_t j = 1; j < survivors.size(); ++j) {
      g.add_edge(survivors[j - 1], survivors[j]);
    }
  }
  std::optional<dash::util::ThreadPool> pool;
  if (workers > 0) pool.emplace(workers);
  double sample = 0.0;
  for (auto _ : state) {
    const auto stats =
        pool ? tracker.stretch_stats(g, *pool) : tracker.stretch_stats(g);
    sample = stats.max;
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * g.num_alive());
  state.SetLabel(workers == 0 ? "seq" : std::to_string(workers) + "w");
}
BENCHMARK(BM_StretchSample)
    ->Args({1024, 0})
    ->Args({1024, 4})
    ->Args({4096, 0})
    ->Args({4096, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_BarabasiAlbert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dash::graph::barabasi_albert(n, 2, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BarabasiAlbert)->Arg(1024)->Arg(8192);

void BM_DashHealStep(benchmark::State& state) {
  // Cost of one deletion+heal on a star (the worst reconnection-set
  // size for a single heal).
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Graph g = dash::graph::star_graph(k + 1);
    Rng rng(5);
    HealingState st(g, rng);
    auto healer = dash::core::make_strategy("dash");
    state.ResumeTiming();
    const DeletionContext ctx = st.begin_deletion(g, 0);
    g.delete_node(0);
    healer->heal(g, st, ctx);
    benchmark::DoNotOptimize(st.max_delta_ever());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_DashHealStep)->Arg(64)->Arg(512);

void BM_FullSchedule(benchmark::State& state) {
  // Full engine loop via a declarative scenario: attack selection and
  // heal, with no observers attached -- connectivity checks are lazy,
  // so none run until the final finish() scan.
  const auto n = static_cast<std::size_t>(state.range(0));
  const char* names[] = {"dash", "sdash", "graph"};
  const char* healer_name = names[state.range(1)];
  const auto scenario =
      dash::api::Scenario().targeted("neighborofmax");
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(6);
    Graph g = dash::graph::barabasi_albert(n, 2, rng);
    dash::api::Network net(std::move(g),
                           dash::core::make_strategy(healer_name), rng);
    state.ResumeTiming();
    const auto metrics = net.play(scenario, 7);
    benchmark::DoNotOptimize(metrics.max_delta);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(healer_name);
}
BENCHMARK(BM_FullSchedule)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({1024, 0});

void BM_ObserverPipelineOverhead(benchmark::State& state) {
  // Same schedule with a row-recording sink attached: what a pipeline
  // stage costs per deletion (dominated by the largest-component scan).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto scenario =
      dash::api::Scenario().targeted("neighborofmax");
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(6);
    Graph g = dash::graph::barabasi_albert(n, 2, rng);
    dash::api::Network net(std::move(g), dash::core::make_strategy("dash"),
                           rng);
    dash::api::MemorySink rows;
    net.add_observer(std::make_unique<dash::api::SinkObserver>(rows));
    state.ResumeTiming();
    const auto metrics = net.play(scenario, 7);
    benchmark::DoNotOptimize(metrics.deletions);
    benchmark::DoNotOptimize(rows.rows().size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ObserverPipelineOverhead)->Arg(256);

void BM_ConnectivityPerRound(benchmark::State& state) {
  // End to end: a 10k-node churn scenario with an InvariantObserver
  // asking connectivity EVERY round (battery amortized out of the
  // measurement), answered by the engine's incremental tracker. The
  // whole engine loop is timed -- graph mutation, heal, id propagation,
  // churn bookkeeping. BM_ConnectivityCheckReplay isolates the check
  // itself against a BFS scan.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto scenario = dash::api::Scenario().churn(0.3, 0.7, 2000);
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(8);
    Graph g = dash::graph::barabasi_albert(n, 2, rng);
    dash::api::Network net(std::move(g), dash::core::make_strategy("dash"),
                           rng);
    dash::api::InvariantOptions inv_opts;
    inv_opts.battery_every = 0;  // isolate the connectivity cost
    net.add_observer(
        std::make_unique<dash::api::InvariantObserver>(inv_opts));
    state.ResumeTiming();
    const auto metrics = net.play(scenario, 9);
    benchmark::DoNotOptimize(metrics.stayed_connected);
    benchmark::DoNotOptimize(metrics.largest_component);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_ConnectivityPerRound)->Arg(10000)->Unit(benchmark::kMillisecond);

/// One recorded churn event for BM_ConnectivityCheckReplay: a join
/// (new node wired to two peers) or a deletion plus the path of heal
/// edges that certifiably reconnects its survivors.
struct ReplayOp {
  bool is_join = false;
  NodeId victim = 0;
  std::vector<NodeId> join_targets;
  std::vector<std::pair<NodeId, NodeId>> heal_edges;
};

struct ReplayTrace {
  Graph base;
  std::vector<ReplayOp> ops;
};

const ReplayTrace& replay_trace() {
  // Built once: a 10k-node BA graph and 2000 churn events (30% join /
  // 70% leave, survivors path-healed so every deletion is certified),
  // with victims and heal edges recorded so both bench variants replay
  // the *identical* mutation stream.
  static const ReplayTrace* trace = [] {
    auto* t = new ReplayTrace{Graph(0), {}};
    Rng rng(10);
    t->base = dash::graph::barabasi_albert(10000, 2, rng);
    Graph g = t->base;
    t->ops.reserve(2000);
    for (std::size_t e = 0; e < 2000; ++e) {
      ReplayOp op;
      if (rng.chance(0.3)) {
        op.is_join = true;
        const auto alive = g.alive_nodes();
        op.join_targets = {
            alive[static_cast<std::size_t>(rng.below(alive.size()))],
            alive[static_cast<std::size_t>(rng.below(alive.size()))]};
        const NodeId v = g.add_node();
        for (NodeId target : op.join_targets) {
          if (target != v) g.add_edge(v, target);
        }
      } else {
        const auto alive = g.alive_nodes();
        op.victim =
            alive[static_cast<std::size_t>(rng.below(alive.size()))];
        const auto survivors = g.delete_node(op.victim);
        for (std::size_t i = 1; i < survivors.size(); ++i) {
          if (g.add_edge(survivors[i - 1], survivors[i])) {
            op.heal_edges.emplace_back(survivors[i - 1], survivors[i]);
          }
        }
      }
      t->ops.push_back(std::move(op));
    }
    return t;
  }();
  return *trace;
}

void BM_ConnectivityCheckReplay(benchmark::State& state) {
  // The isolated subsystem cost: replay the recorded 10k churn mutation
  // stream and answer "connected?" after every event via the tracker
  // (mode 0) or a fresh BFS (mode 1). Graph mutation cost is common to
  // both variants; everything else is pure connectivity-check.
  const bool use_tracker = state.range(0) == 0;
  const ReplayTrace& trace = replay_trace();
  std::size_t checks = 0;
  for (auto _ : state) {
    Graph g = trace.base;
    std::optional<dash::graph::DynamicConnectivity> dc;
    if (use_tracker) dc.emplace(g);
    bool ok = true;
    for (const ReplayOp& op : trace.ops) {
      if (op.is_join) {
        const NodeId v = g.add_node();
        if (use_tracker) dc->node_added(v);
        for (NodeId target : op.join_targets) {
          if (target != v && g.add_edge(v, target)) {
            if (use_tracker) dc->edge_added(v, target);
          }
        }
      } else {
        const auto survivors = g.delete_node(op.victim);
        for (const auto& [a, b] : op.heal_edges) {
          g.add_edge(a, b);
          if (use_tracker) dc->edge_added(a, b);
        }
        if (use_tracker) {
          dc->node_removed(op.victim, survivors, /*may_split=*/false);
        }
      }
      ok &= use_tracker ? dc->connected() : dash::graph::is_connected(g);
      ++checks;
    }
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(checks));
  state.SetLabel(use_tracker ? "tracker" : "bfs");
}
BENCHMARK(BM_ConnectivityCheckReplay)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_MinIdPropagation(benchmark::State& state) {
  // Propagation cost over a long healing chain.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Graph g(n);
    Rng rng(7);
    HealingState st(g, rng);
    std::vector<NodeId> chain;
    for (NodeId v = 1; v < n; ++v) st.add_healing_edge(g, v - 1, v);
    for (NodeId v = 0; v < n; ++v) chain.push_back(v);
    state.ResumeTiming();
    benchmark::DoNotOptimize(st.propagate_min_id(g, chain));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MinIdPropagation)->Arg(1024)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
