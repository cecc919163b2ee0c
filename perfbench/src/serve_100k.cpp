// serve_100k -- writes beside reads: BA(10^5, 2) healed by DASH under
// balanced churn (joins and leaves), publishing a snapshot after every
// event, while two reader threads query pinned epochs on an open-loop
// schedule. Publishing (CSR patch plus component relabelling) and BFS
// distance reads dominate; joins exercise Graph::add_node and slab
// growth, which attack_1m never does.
//
// Probes on either side of the serve publisher split every event into
// mutation (selection, delete + heal or join) and publish; the second
// probe's timestamp is the moment the event became visible to readers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/serve.h"
#include "graph/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dash::api::Network;

constexpr std::size_t kNodes = 100'000;
constexpr std::size_t kAttach = 2;
constexpr std::size_t kTicksPerChunk = 250;  ///< churn ticks per play()
// Churn ticks per second of --seconds, sized so the parent's run takes
// about that long on a 4-core x86 box (one tick is one event on
// average: join and leave coins are 0.5 each).
constexpr double kTicksPerSecond = 200.0;
/// Leading chunks run by writer and readers alike but not measured:
/// the first epochs allocate snapshot buffers and fill caches.
constexpr std::size_t kWarmupChunks = 1;
constexpr std::size_t kRefChunks = 2;  ///< reader-free reference prefix
constexpr int kSetupReps = 5;
constexpr std::size_t kReaders = 2;
/// A read request pins one epoch and answers a batch of queries on it:
/// kQueriesPerRead - 1 connected lookups and one BFS distance, with a
/// largest_component in place of one lookup in every kComponentEvery-th
/// request -- by query count 1/64 distance, 1/1024 largest_component,
/// the rest connected. Timing whole requests keeps the median at the
/// BFS's millisecond scale; a lone sub-microsecond lookup would mostly
/// time the clock reads around it.
constexpr std::size_t kQueriesPerRead = 64;
constexpr std::uint64_t kComponentEvery = 16;
/// Offered requests/s per reader (open loop, fixed schedule): the BFS
/// keeps a reader about a quarter busy, so the median request does not
/// queue behind the previous one (see README.md).
constexpr double kReadRate = 100.0;
constexpr std::size_t kReaderSpanCap = std::size_t{1} << 20;

struct Engine {
  std::unique_ptr<Network> net;
  Probe* mutated = nullptr;    ///< registered before serve()
  Probe* published = nullptr;  ///< registered after serve()'s publisher
  dash::api::ServeHandle* serve = nullptr;
  double generate_s = 0.0;
  double init_s = 0.0;
  double total_s = 0.0;
};

Engine build(std::uint64_t seed, SpanLog* log) {
  Engine e;
  const TimePoint t0 = Clock::now();
  dash::util::Rng rng(seed);
  dash::graph::Graph g = dash::graph::barabasi_albert(kNodes, kAttach, rng);
  const TimePoint t1 = Clock::now();
  e.net = std::make_unique<Network>(std::move(g), "dash", seed);
  auto before = std::make_unique<Probe>();
  e.mutated = before.get();
  e.net->add_observer(std::move(before));
  const TimePoint t2 = Clock::now();
  dash::api::ServeOptions sopts;
  sopts.publish_every = 1;
  e.serve = &e.net->serve(sopts);  // publishes the initial epoch
  auto after = std::make_unique<Probe>();
  e.published = after.get();
  e.net->add_observer(std::move(after));
  const TimePoint t3 = Clock::now();
  e.generate_s = seconds_between(t0, t1);
  e.init_s = seconds_between(t1, t2);
  e.total_s = seconds_between(t0, t3);
  if (log != nullptr) {
    log->add("graph.generate", t0, t1, -1, 0);
    log->add("api.network_init", t1, t2, -1, 0);
    log->add("graph.publish", t2, t3, -1, 0);
  }
  return e;
}

struct WritePass {
  Samples visible_us, select_us, remove_us, join_us, publish_us;
  std::vector<std::string> snapshots;  ///< Metrics JSON per chunk
  std::size_t events = 0;    ///< all events, warm-up included
  std::size_t measured = 0;  ///< events after the warm-up
  double play_s = 0.0;       ///< wall time of the measured chunks
  dash::api::Metrics final;
  std::size_t rebuilds = 0, rescanned = 0;
  std::size_t full = 0, patched = 0, patched_vertices = 0;
};

/// Play `chunks` churn chunks on the calling thread; the first
/// kWarmupChunks are not measured, and `measuring` (when given) is
/// raised as the measured chunks begin.
WritePass mutate(Engine& e, std::uint64_t seed, std::size_t chunks,
                 SpanLog* log, std::atomic<bool>* measuring) {
  WritePass w;
  const dash::api::Scenario churn = dash::api::Scenario::parse(
      "churn:0.5,0.5x" + std::to_string(kTicksPerChunk));
  dash::util::Rng rng(seed + 1);
  TimePoint start{};  // when the current event began
  bool measure = false;
  e.published->on_event = [&](bool joined) {
    const TimePoint mutated = e.mutated->end;
    const TimePoint visible = e.published->end;
    ++w.events;
    if (!measure) {
      start = visible;
      return;
    }
    ++w.measured;
    w.visible_us.add(micros_between(start, visible));
    w.publish_us.add(micros_between(mutated, visible));
    if (joined) {
      w.join_us.add(micros_between(start, mutated));
    } else {
      w.select_us.add(micros_between(start, e.mutated->begin));
      w.remove_us.add(micros_between(e.mutated->begin, mutated));
    }
    if (log != nullptr) {
      const std::int64_t root = log->add("bench.event", start, visible, -1, w.events);
      if (joined) {
        log->add("api.join", start, mutated, root, w.events);
      } else {
        log->add("attack.select", start, e.mutated->begin, root, w.events);
        log->add("api.remove", e.mutated->begin, mutated, root, w.events);
      }
      log->add("graph.publish", mutated, visible, root, w.events);
    }
    start = visible;
  };
  TimePoint t0 = Clock::now();
  for (std::size_t c = 0; c < chunks; ++c) {
    start = Clock::now();
    if (c == kWarmupChunks) {
      measure = true;
      t0 = start;
      if (measuring != nullptr) measuring->store(true, std::memory_order_relaxed);
    }
    w.snapshots.push_back(metrics_json(e.net->play(churn, rng)));
  }
  w.play_s = seconds_between(t0, Clock::now());
  e.published->on_event = nullptr;
  w.final = e.net->finish();
  if (const auto* tracker = e.net->connectivity_tracker()) {
    w.rebuilds = tracker->rebuilds();
    w.rescanned = tracker->nodes_rescanned();
  }
  w.full = e.serve->store().full_publishes();
  w.patched = e.serve->store().patched_publishes();
  w.patched_vertices = e.serve->store().touched_vertices();
  return w;
}

struct ReaderState {
  explicit ReaderState(TimePoint epoch) : log(epoch, kReaderSpanCap) {}
  Samples op_us, late_us;
  Samples pin_us, connected_us, distance_us, component_us;
  std::size_t reads = 0;
  std::size_t torn = 0;
  SpanLog log;
};

/// One reader thread: request i is due at sched.due(i); it is issued
/// when due (spinning until then) or as soon as the previous request
/// finished, and timed from its due time. Runs until `stop`; requests
/// issued before `measuring` is raised are checked but not timed.
void read_loop(dash::api::ServeReader& reader, const OpenLoop& sched,
               std::uint64_t seed, const std::atomic<bool>& stop,
               const std::atomic<bool>& measuring, bool trace,
               ReaderState& st) {
  dash::util::Rng rng(seed);
  for (std::uint64_t i = 0;; ++i) {
    const TimePoint due = sched.due(i);
    TimePoint issued = Clock::now();
    while (issued < due && !stop.load(std::memory_order_relaxed)) {
      issued = Clock::now();
    }
    if (stop.load(std::memory_order_relaxed)) return;

    dash::api::ServePin pin = reader.pin();
    const TimePoint pinned = trace ? Clock::now() : issued;
    const auto& alive = pin.snapshot().view().alive_nodes();
    const auto pick = [&] {
      return alive[static_cast<std::size_t>(rng.below(alive.size()))];
    };
    const bool component = i % kComponentEvery == kComponentEvery - 1;
    const std::size_t lookups = kQueriesPerRead - 1 - (component ? 1 : 0);
    for (std::size_t q = 0; q < lookups; ++q) (void)pin.connected(pick(), pick());
    const TimePoint looked_up = trace ? Clock::now() : issued;
    if (component) {
      const std::size_t largest = pin.largest_component();
      if (largest == 0 || largest > pin.alive()) ++st.torn;
    }
    const TimePoint sized = trace ? Clock::now() : issued;
    // connected() reads the labels, distance() the CSR arrays: within
    // one pin they must agree, or the pinned snapshot was torn.
    const dash::graph::NodeId u = pick();
    const dash::graph::NodeId v = pick();
    if (pin.distance(u, v).has_value() != pin.connected(u, v)) ++st.torn;
    const TimePoint done = Clock::now();

    ++st.reads;
    if (!measuring.load(std::memory_order_relaxed)) continue;
    const RequestTiming t = account(due, issued, done);
    st.op_us.add(t.latency_us);
    st.late_us.add(t.late_us);
    if (trace) {
      st.pin_us.add(micros_between(issued, pinned));
      st.connected_us.add(micros_between(pinned, looked_up) / static_cast<double>(lookups));
      st.distance_us.add(micros_between(sized, done));
      const std::int64_t root = st.log.add("bench.read", issued, done, -1, i);
      st.log.add("serve.pin", issued, pinned, root, i);
      st.log.add("serve.connected", pinned, looked_up, root, i);
      if (component) {
        st.component_us.add(micros_between(looked_up, sized));
        st.log.add("serve.largest_component", looked_up, sized, root, i);
      }
      st.log.add("serve.distance", sized, done, root, i);
    }
  }
}

struct ServedPass {
  WritePass writes;
  std::vector<std::unique_ptr<ReaderState>> readers;
  Samples op_us, late_us;
  std::size_t reads = 0, torn = 0;
};

ServedPass serve_pass(const RunConfig& cfg, Engine& e, std::size_t chunks,
                      SpanLog* log) {
  ServedPass p;
  const TimePoint epoch = log != nullptr ? log->epoch() : Clock::now();
  const TimePoint start = Clock::now() + std::chrono::milliseconds(5);
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<dash::api::ServeReader> handles;
  for (std::size_t r = 0; r < kReaders; ++r) {
    handles.push_back(e.serve->reader());
    p.readers.push_back(std::make_unique<ReaderState>(epoch));
  }
  std::vector<std::thread> threads;
  const auto join_readers = [&] {
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
  };
  try {
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        const OpenLoop sched(start, kReadRate);
        read_loop(handles[r], sched, cfg.seed * 0x9e3779b9ULL + r + 1, stop,
                  measuring, log != nullptr, *p.readers[r]);
      });
    }
    std::this_thread::sleep_until(start);
    p.writes = mutate(e, cfg.seed, chunks, log, &measuring);
  } catch (...) {
    join_readers();
    throw;
  }
  join_readers();
  for (const auto& st : p.readers) {
    p.op_us.merge(st->op_us);
    p.late_us.merge(st->late_us);
    p.reads += st->reads;
    p.torn += st->torn;
  }
  return p;
}

void check_pass(const ServedPass& p, Report& report) {
  report.attempt(p.writes.events + p.reads);
  if (p.torn != 0) report.fail("serve_100k torn reads", p.torn);
  check_healed(report, p.writes.final, "dash", kNodes, "serve_100k network");
}

void end_to_end(const ServedPass& p, double setup_s, MetricSet& out,
                Report& report) {
  const WritePass& w = p.writes;
  const TailPick tail = pick_tail(p.op_us.count());
  out.set("setup_s", setup_s);
  out.set("events_per_s", static_cast<double>(w.measured) / w.play_s);
  out.set("op_p50_us", p.op_us.median());
  out.set("op_tail_us", p.op_us.quantile(tail.q));
  report.note("op = one read request (pin + " + std::to_string(kQueriesPerRead) +
              " queries, one of them a BFS distance) timed from its due time; offered " +
              std::to_string(kReadRate * kReaders) + " requests/s (" +
              std::to_string(kReaders) + " readers x " + std::to_string(kReadRate) +
              "), largest_component in every " + std::to_string(kComponentEvery) +
              "th; op_tail_us is the " + tail.label + " of " +
              std::to_string(p.op_us.count()) + " requests");
  report.note("serve_100k events_per_s = " + std::to_string(w.measured / w.play_s) +
              " 1/s (" + std::to_string(w.measured) + " measured events applied and published)");
  report.note("serve_100k event_visible_p50_us = " +
              std::to_string(w.visible_us.median()) + " us, event_visible_p99_us = " +
              std::to_string(w.visible_us.quantile(0.99)) + " us");
  report.note("serve_100k read_p50_us = " + std::to_string(p.op_us.median()) +
              " us, read_p99_us = distance_p99_us = " +
              std::to_string(p.op_us.quantile(0.99)) +
              " us (every request runs one distance)");
  report.note("serve_100k achieved requests/s = " +
              std::to_string(p.op_us.count() / w.play_s) + ", generator late p99 = " +
              std::to_string(p.late_us.quantile(0.99)) + " us");
}

/// The mutation stream must not depend on the readers: replay a prefix
/// without readers and compare the Metrics bytes chunk by chunk.
void check_reader_free(const RunConfig& cfg, const WritePass& served,
                       std::size_t chunks, Report& report) {
  const std::size_t prefix = std::min(chunks, kRefChunks);
  Engine e = build(cfg.seed, nullptr);
  const WritePass ref = mutate(e, cfg.seed, prefix, nullptr, nullptr);
  report.check(std::equal(ref.snapshots.begin(), ref.snapshots.end(),
                          served.snapshots.begin()),
               "serve_100k Metrics bytes equal a reader-free run over the "
               "first " + std::to_string(prefix) + " chunks");
}

}  // namespace

void run_serve_100k(const RunConfig& cfg, Report& report) {
  const std::size_t chunks =
      kWarmupChunks + static_cast<std::size_t>(std::max(
                          1.0, std::ceil(cfg.seconds * kTicksPerSecond / kTicksPerChunk)));
  report.note("serve_100k: BA(" + std::to_string(kNodes) + ", 2), dash, " +
              std::to_string(chunks) + " x churn:0.5,0.5x" +
              std::to_string(kTicksPerChunk) + " (first " +
              std::to_string(kWarmupChunks) + " warm-up), publish_every=1, " +
              std::to_string(kReaders) + " open-loop readers");

  MetricSet e2e(end_to_end_metrics(), false);
  if (!cfg.trace) {
    std::vector<double> setups;
    Engine e;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      e = Engine{};
      e = build(cfg.seed, nullptr);
      setups.push_back(e.total_s);
    }
    const ServedPass p = serve_pass(cfg, e, chunks, nullptr);
    check_pass(p, report);
    end_to_end(p, quantile(setups, 0.5), e2e, report);
    check_reader_free(cfg, p.writes, chunks, report);
    e2e.emit(report);
    return;
  }

  // Traced run: the same schedule untraced, then traced.
  ServedPass plain;
  {
    Engine e = build(cfg.seed, nullptr);
    plain = serve_pass(cfg, e, chunks, nullptr);
    check_pass(plain, report);
    end_to_end(plain, e.total_s, e2e, report);
  }
  check_reader_free(cfg, plain.writes, chunks, report);

  SpanLog log(Clock::now(), std::size_t{1} << 20);
  Engine e = build(cfg.seed, &log);
  const ServedPass traced = serve_pass(cfg, e, chunks, &log);
  check_pass(traced, report);
  report.check(traced.writes.snapshots == plain.writes.snapshots,
               "traced and untraced serve_100k runs have identical Metrics bytes");

  const WritePass& w = traced.writes;
  Samples pin, connected, distance, component;
  for (const auto& st : traced.readers) {
    pin.merge(st->pin_us);
    connected.merge(st->connected_us);
    distance.merge(st->distance_us);
    component.merge(st->component_us);
  }
  MetricSet layers(per_layer_metrics(), true);
  layers.set("graph.generate_s", e.generate_s);
  layers.set("api.network_init_s", e.init_s);
  layers.set("attack.select_random_us_p50", w.select_us.median());
  layers.set("api.remove_random_us_p50", w.remove_us.median());
  layers.set("api.remove_us_p99", w.remove_us.quantile(0.99));
  layers.set("api.join_us_p50", w.join_us.median());
  const dash::api::Metrics& m = w.final;
  layers.set("core.edges_added_per_deletion",
             m.deletions ? static_cast<double>(m.edges_added) / m.deletions : 0.0);
  layers.set("core.max_delta", m.max_delta);
  layers.set("core.surrogate_heals", static_cast<double>(m.surrogate_heals));
  layers.set("graph.connectivity.rebuilds", static_cast<double>(w.rebuilds));
  layers.set("graph.connectivity.nodes_rescanned", static_cast<double>(w.rescanned));
  layers.set("graph.publish_us_p50", w.publish_us.median());
  layers.set("graph.publish_us_p99", w.publish_us.quantile(0.99));
  layers.set("graph.publish_full", static_cast<double>(w.full));
  layers.set("graph.publish_patched", static_cast<double>(w.patched));
  layers.set("graph.patched_vertices", static_cast<double>(w.patched_vertices));
  layers.set("serve.pin_us_p50", pin.median());
  layers.set("serve.connected_us_p50", connected.median());
  layers.set("serve.distance_us_p50", distance.median());
  layers.set("serve.distance_us_p99", distance.quantile(0.99));
  layers.set("serve.largest_component_us_p50", component.median());
  layers.set("serve.reads", static_cast<double>(traced.reads));
  layers.set("serve.torn_reads", static_cast<double>(traced.torn));
  layers.set("serve.generator_late_us_p99", traced.late_us.quantile(0.99));
  layers.set("trace.events_per_s_overhead_pct",
             overhead_pct(plain.writes.measured / plain.writes.play_s,
                          w.measured / w.play_s));
  layers.set("trace.op_p50_overhead_pct",
             -overhead_pct(plain.op_us.median(), traced.op_us.median()));
  std::vector<const SpanLog*> logs{&log};
  for (const auto& st : traced.readers) logs.push_back(&st->log);
  finish_trace(cfg, logs, layers, report);
  layers.emit(report);
}

}  // namespace perfbench
