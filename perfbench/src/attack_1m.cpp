// attack_1m -- the paper's setting at north-star scale: BA(10^6, 2)
// healed by DASH under a max-degree hub strike (large reconstruction-
// tree heals) followed by a long random-failure phase (small heals),
// with estimate-mode stretch sampling at a sparse cadence. Single
// thread, no serving: snapshot publish does no work here.
//
// The benchmark drives the adversary itself (attack::make_attack +
// Network::remove), so selection and removal are timed apart. A probe
// registered before the StretchObserver splits each remove() into the
// heal (up to the probe) and the stretch sample (after it).
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "attack/factory.h"
#include "graph/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dash::api::Network;

constexpr std::size_t kNodes = 1'000'000;
constexpr std::size_t kAttach = 2;
constexpr std::size_t kSampleEvery = 1024;
constexpr std::size_t kLandmarks = 16;
constexpr std::size_t kPairs = 256;
constexpr std::size_t kChunk = 1024;  ///< deletions per Metrics snapshot
constexpr int kSetupReps = 3;
// Deletions per second of --seconds, sized so the parent's run takes
// about that long on a 4-core x86 box; fixed per run, so every commit
// measures the same event stream.
constexpr double kHubsPerSecond = 10.0;
constexpr double kRandomPerSecond = 170.0;

struct Engine {
  std::unique_ptr<Network> net;
  Probe* healed = nullptr;  ///< fires before the stretch sample
  const dash::api::StretchObserver* stretch = nullptr;
  double generate_s = 0.0;
  double init_s = 0.0;
  double landmark_s = 0.0;
  double total_s() const { return generate_s + init_s + landmark_s; }
};

Engine build(std::uint64_t seed, SpanLog* log) {
  Engine e;
  const TimePoint t0 = Clock::now();
  dash::util::Rng rng(seed);
  dash::graph::Graph g = dash::graph::barabasi_albert(kNodes, kAttach, rng);
  const TimePoint t1 = Clock::now();
  e.net = std::make_unique<Network>(std::move(g), "dash", seed);
  const TimePoint t2 = Clock::now();
  auto probe = std::make_unique<Probe>();
  e.healed = probe.get();
  e.net->add_observer(std::move(probe));
  dash::api::StretchObserverOptions so;
  so.sample_every = kSampleEvery;
  so.estimate = true;
  so.landmarks = kLandmarks;
  so.pairs = kPairs;
  so.seed = seed;
  auto stretch = std::make_unique<dash::api::StretchObserver>(so);
  e.stretch = stretch.get();
  e.net->add_observer(std::move(stretch));  // builds the landmark rows
  const TimePoint t3 = Clock::now();
  e.generate_s = seconds_between(t0, t1);
  e.init_s = seconds_between(t1, t2);
  e.landmark_s = seconds_between(t2, t3);
  if (log != nullptr) {
    log->add("graph.generate", t0, t1, -1, 0);
    log->add("api.network_init", t1, t2, -1, 0);
    log->add("analysis.landmark_build", t2, t3, -1, 0);
  }
  return e;
}

struct Phase {
  Samples select_us, remove_us, op_us;
};

struct Pass {
  Phase hub, random;
  Samples remove_us, sample_ms;
  std::vector<std::string> snapshots;  ///< Metrics JSON per chunk
  std::size_t deletions = 0;
  double play_s = 0.0;
  std::size_t pairs = 0, bounded = 0;
  dash::api::Metrics final;
  std::size_t rebuilds = 0, rescanned = 0;
};

/// Delete `count` victims picked by `attacker`; false if it gave up.
bool strike(Engine& e, dash::attack::AttackStrategy& attacker,
            std::size_t count, Phase& phase, Pass& pass, SpanLog* log) {
  Network& net = *e.net;
  for (std::size_t i = 0; i < count; ++i) {
    const TimePoint t0 = Clock::now();
    const dash::graph::NodeId v = attacker.select(net.graph(), net.state());
    const TimePoint t1 = Clock::now();
    if (v == dash::graph::kInvalidNode) return false;
    net.remove(v);
    const TimePoint t3 = Clock::now();
    const TimePoint t2 = e.healed->end;
    const bool sampled = e.stretch->sampled_last_round();
    ++pass.deletions;
    phase.select_us.add(micros_between(t0, t1));
    phase.remove_us.add(micros_between(t1, t2));
    phase.op_us.add(micros_between(t0, t2));
    pass.remove_us.add(micros_between(t1, t2));
    if (sampled) {
      pass.sample_ms.add(micros_between(t2, t3) / 1e3);
      pass.pairs += e.stretch->last_estimate().pairs;
      pass.bounded += e.stretch->last_estimate().bounded;
    }
    if (log != nullptr) {
      const std::int64_t root = log->add("bench.deletion", t0, t3, -1, pass.deletions);
      log->add("attack.select", t0, t1, root, pass.deletions);
      log->add("api.remove", t1, t2, root, pass.deletions);
      if (sampled) log->add("analysis.stretch_estimate", t2, t3, root, pass.deletions);
    }
    if (pass.deletions % kChunk == 0) {
      pass.snapshots.push_back(metrics_json(net.metrics()));
    }
  }
  return true;
}

Pass play(Engine& e, std::uint64_t seed, std::size_t hubs,
          std::size_t randoms, Report& report, SpanLog* log) {
  Pass pass;
  auto hub = dash::attack::make_attack("maxnode", seed);
  auto random = dash::attack::make_attack("random", seed + 1);
  const TimePoint t0 = Clock::now();
  const bool ok = strike(e, *hub, hubs, pass.hub, pass, log) &&
                  strike(e, *random, randoms, pass.random, pass, log);
  pass.play_s = seconds_between(t0, Clock::now());
  report.check(ok, "attack_1m adversary picked a victim every round");
  report.attempt(hubs + randoms);
  pass.final = e.net->finish();
  pass.snapshots.push_back(metrics_json(pass.final));
  const dash::graph::DynamicConnectivity* tracker = e.net->connectivity_tracker();
  if (tracker != nullptr) {
    pass.rebuilds = tracker->rebuilds();
    pass.rescanned = tracker->nodes_rescanned();
  }
  check_healed(report, pass.final, "dash", kNodes, "attack_1m network");
  return pass;
}

void end_to_end(const Pass& p, double setup_s, MetricSet& out,
                Report& report) {
  const Samples& op = p.random.op_us;
  const TailPick tail = pick_tail(op.count());
  out.set("setup_s", setup_s);
  out.set("events_per_s", static_cast<double>(p.deletions) / p.play_s);
  out.set("op_p50_us", op.median());
  out.set("op_tail_us", op.quantile(tail.q));
  report.note("op = one random-phase deletion (attack select + Network::remove, "
              "stretch sampling excluded); op_tail_us is the " + tail.label +
              " of " + std::to_string(op.count()) + " deletions");
  report.note("attack_1m deletions_per_s = " +
              std::to_string(p.deletions / p.play_s) + " 1/s (" +
              std::to_string(p.deletions) + " deletions in " +
              std::to_string(p.play_s) + " s, sampling included)");
  report.note("attack_1m hub_deletion_p50_us = " +
              std::to_string(p.hub.op_us.median()) + " us (" +
              std::to_string(p.hub.op_us.count()) + " hub deletions)");
  report.note("attack_1m random_deletion_p50_us = " +
              std::to_string(p.random.op_us.median()) + " us, p99 = " +
              std::to_string(p.random.op_us.quantile(0.99)) + " us (" +
              std::to_string(p.random.op_us.count()) + " random deletions)");
  report.note("attack_1m stretch_estimate_p50_ms = " +
              std::to_string(p.sample_ms.median()) + " ms (" +
              std::to_string(p.sample_ms.count()) + " samples)");
}

}  // namespace

void run_attack_1m(const RunConfig& cfg, Report& report) {
  const auto hubs = static_cast<std::size_t>(std::ceil(cfg.seconds * kHubsPerSecond));
  const auto randoms = static_cast<std::size_t>(std::ceil(cfg.seconds * kRandomPerSecond));
  report.note("attack_1m: BA(" + std::to_string(kNodes) + ", 2), dash, " +
              std::to_string(hubs) + " maxnode + " + std::to_string(randoms) +
              " random deletions, estimate stretch every " +
              std::to_string(kSampleEvery) + " rounds");

  MetricSet e2e(end_to_end_metrics(), false);
  if (!cfg.trace) {
    std::vector<double> setups;
    Engine e;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      e = Engine{};  // release the previous engine before building anew
      e = build(cfg.seed, nullptr);
      setups.push_back(e.total_s());
    }
    const Pass p = play(e, cfg.seed, hubs, randoms, report, nullptr);
    end_to_end(p, quantile(setups, 0.5), e2e, report);
    e2e.emit(report);
    return;
  }

  // Traced run: the same event stream untraced, then traced.
  Pass plain;
  double plain_setup = 0.0;
  {
    Engine e = build(cfg.seed, nullptr);
    plain_setup = e.total_s();
    plain = play(e, cfg.seed, hubs, randoms, report, nullptr);
  }
  end_to_end(plain, plain_setup, e2e, report);

  SpanLog log(Clock::now(), std::size_t{1} << 20);
  Engine e = build(cfg.seed, &log);
  const Pass traced = play(e, cfg.seed, hubs, randoms, report, &log);
  report.check(traced.snapshots == plain.snapshots,
               "traced and untraced attack_1m runs have identical Metrics bytes");

  MetricSet layers(per_layer_metrics(), true);
  layers.set("graph.generate_s", e.generate_s);
  layers.set("api.network_init_s", e.init_s);
  layers.set("analysis.landmark_build_s", e.landmark_s);
  layers.set("attack.select_hub_us_p50", traced.hub.select_us.median());
  layers.set("attack.select_random_us_p50", traced.random.select_us.median());
  layers.set("api.remove_hub_us_p50", traced.hub.remove_us.median());
  layers.set("api.remove_random_us_p50", traced.random.remove_us.median());
  layers.set("api.remove_us_p99", traced.remove_us.quantile(0.99));
  const dash::api::Metrics& m = traced.final;
  layers.set("core.edges_added_per_deletion",
             m.deletions ? static_cast<double>(m.edges_added) / m.deletions : 0.0);
  layers.set("core.max_delta", m.max_delta);
  layers.set("core.surrogate_heals", static_cast<double>(m.surrogate_heals));
  layers.set("graph.connectivity.rebuilds", static_cast<double>(traced.rebuilds));
  layers.set("graph.connectivity.nodes_rescanned",
             static_cast<double>(traced.rescanned));
  layers.set("analysis.estimate_ms_p50", traced.sample_ms.median());
  layers.set("analysis.bounded_ratio",
             traced.pairs ? static_cast<double>(traced.bounded) / traced.pairs : 0.0);
  layers.set("trace.events_per_s_overhead_pct",
             overhead_pct(plain.deletions / plain.play_s,
                          traced.deletions / traced.play_s));
  layers.set("trace.op_p50_overhead_pct",
             -overhead_pct(plain.random.op_us.median(), traced.random.op_us.median()));
  finish_trace(cfg, {&log}, layers, report);
  layers.emit(report);
}

}  // namespace perfbench
