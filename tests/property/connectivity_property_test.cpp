// connectivity_property_test.cpp -- the engine's connectivity answers
// against an independent reference: for EVERY registered scenario phase
// type, a test-side observer labels the components of the network with
// graph::connected_components after every round and join, and the
// engine's own answers (RoundEvent::connected(), component_snapshot(),
// the per-round rows and the final Metrics) must match it exactly --
// under both sequential and pooled run_suite execution, and for healers
// that keep the network connected (dash, graph) as well as one that
// lets it shatter (none). The engine answers from its incremental
// DynamicConnectivity tracker only, so this suite is the tracker's
// end-to-end differential test. A serving leg republishes the network
// (every event, and every third) and checks that each published
// snapshot's labels -- copied from the tracker -- induce the partition
// a BFS finds on that snapshot's own CSR view.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "../test_helpers.h"
#include "api/api.h"
#include "api/scenario.h"
#include "api/serve.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/thread_pool.h"

namespace dash::api {
namespace {

constexpr std::size_t kInstances = 4;
constexpr std::uint64_t kSeed = 0xC0117u;

/// One event's component structure.
struct Structure {
  std::size_t count = 0;
  std::size_t largest = 0;
  bool connected = true;
};

/// Records, after attach and after every round and join, the component
/// structure of a fresh BFS labelling next to the engine's answers for
/// the same event.
class BfsReference final : public Observer {
 public:
  std::string name() const override { return "bfs-reference"; }

  void on_attach(const Network& net) override {
    truth.push_back(label(net));
    engine.push_back(answer(net, net.component_count() <= 1));
  }
  void on_round_end(const Network& net, const RoundEvent& ev) override {
    checked_before_asking.push_back(ev.connectivity_checked());
    truth.push_back(label(net));
    engine.push_back(answer(net, ev.connected()));
  }
  void on_join(const Network& net, const JoinEvent&) override {
    truth.push_back(label(net));
    engine.push_back(answer(net, net.component_count() <= 1));
  }

  std::vector<Structure> truth;
  std::vector<Structure> engine;
  /// Per round: whether the engine had already paid for the
  /// connectivity check before this observer asked.
  std::vector<bool> checked_before_asking;

 private:
  static Structure label(const Network& net) {
    const graph::Components comps = graph::connected_components(net.graph());
    return {comps.count(), comps.largest(), comps.count() <= 1};
  }
  static Structure answer(const Network& net, bool connected) {
    const auto [count, largest] = net.component_snapshot();
    return {count, largest, connected};
  }
};

/// Runs right after the serve publisher: pins every epoch it lands and
/// compares the snapshot's labels, count and largest size with a BFS
/// labelling of the snapshot's CSR view.
class PublishedLabelCheck final : public Observer {
 public:
  explicit PublishedLabelCheck(ServeHandle& serve) : serve_(serve) {}
  std::string name() const override { return "published-labels"; }

  void on_attach(const Network&) override { check(); }
  void on_round_end(const Network&, const RoundEvent&) override { check(); }
  void on_join(const Network&, const JoinEvent&) override { check(); }
  void on_finish(const Network&, Metrics&) override { check(); }

  /// Publishes checked, and the first mismatch found (empty if none).
  std::size_t checked = 0;
  std::string failure;

 private:
  void check() {
    if (serve_.epoch() == last_epoch_) return;
    last_epoch_ = serve_.epoch();
    // A fresh reader per check: one kept here would outlive the
    // ServeHandle, which the Network destroys before its observers.
    ServeReader reader = serve_.reader();
    const ServePin pin = reader.pin();
    const graph::Snapshot& snap = pin.snapshot();
    graph::connected_components(snap.view(), scratch_, truth_);
    ++checked;
    if (!failure.empty()) return;
    const std::string at = "epoch " + std::to_string(snap.epoch()) + ": ";
    const ::testing::AssertionResult same =
        dash::testing::same_partition(snap.labels(), truth_);
    if (!same) {
      failure = at + same.message();
    } else if (snap.component_count() != truth_.count()) {
      failure = at + "count " + std::to_string(snap.component_count()) +
                " != BFS " + std::to_string(truth_.count());
    } else if (snap.largest_component() != truth_.largest()) {
      failure = at + "largest " + std::to_string(snap.largest_component()) +
                " != BFS " + std::to_string(truth_.largest());
    }
  }

  ServeHandle& serve_;
  std::uint64_t last_epoch_ = 0;
  graph::TraversalScratch scratch_;
  graph::Components truth_;
};

void expect_structures_eq(const std::vector<Structure>& want,
                          const std::vector<Structure>& got,
                          const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].count, got[i].count) << what << " event " << i;
    EXPECT_EQ(want[i].largest, got[i].largest) << what << " event " << i;
    EXPECT_EQ(want[i].connected, got[i].connected) << what << " event " << i;
  }
}

void expect_metrics_eq(const Metrics& a, const Metrics& b,
                       const std::string& what) {
  EXPECT_EQ(a.deletions, b.deletions) << what;
  EXPECT_EQ(a.joins, b.joins) << what;
  EXPECT_EQ(a.max_delta, b.max_delta) << what;
  EXPECT_EQ(a.max_id_changes, b.max_id_changes) << what;
  EXPECT_EQ(a.max_messages, b.max_messages) << what;
  EXPECT_EQ(a.max_messages_sent, b.max_messages_sent) << what;
  EXPECT_EQ(a.edges_added, b.edges_added) << what;
  EXPECT_EQ(a.surrogate_heals, b.surrogate_heals) << what;
  EXPECT_DOUBLE_EQ(a.max_stretch, b.max_stretch) << what;
  EXPECT_EQ(a.components, b.components) << what;
  EXPECT_EQ(a.largest_component, b.largest_component) << what;
  EXPECT_EQ(a.stayed_connected, b.stayed_connected) << what;
  EXPECT_EQ(a.violation, b.violation) << what;
}

void expect_rows_eq(const std::vector<RoundRow>& a,
                    const std::vector<RoundRow>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].instance, b[i].instance) << what << " row " << i;
    EXPECT_EQ(a[i].round, b[i].round) << what << " row " << i;
    EXPECT_EQ(a[i].deletions_in_round, b[i].deletions_in_round)
        << what << " row " << i;
    EXPECT_EQ(a[i].event_node, b[i].event_node) << what << " row " << i;
    EXPECT_EQ(a[i].is_join, b[i].is_join) << what << " row " << i;
    EXPECT_EQ(a[i].alive, b[i].alive) << what << " row " << i;
    EXPECT_EQ(a[i].edges, b[i].edges) << what << " row " << i;
    EXPECT_EQ(a[i].edges_added, b[i].edges_added) << what << " row " << i;
    EXPECT_EQ(a[i].max_delta, b[i].max_delta) << what << " row " << i;
    EXPECT_EQ(a[i].largest_component, b[i].largest_component)
        << what << " row " << i;
  }
}

struct RunResult {
  std::vector<Metrics> metrics;
  std::vector<RoundRow> rows;
  /// Per instance: the reference's and the engine's event sequences.
  std::vector<std::vector<Structure>> truth;
  std::vector<std::vector<Structure>> engine;
  /// Per instance, when served: publishes checked, first label mismatch.
  std::vector<std::size_t> publishes_checked;
  std::vector<std::string> label_failure;
};

/// `publish_every` > 0 serves the network at that cadence with a
/// PublishedLabelCheck behind the publisher; 0 does not serve.
RunResult run_config(const std::string& spec, const std::string& healer,
                     bool parallel, std::size_t publish_every = 0) {
  RunResult out;
  out.truth.resize(kInstances);
  out.engine.resize(kInstances);
  out.publishes_checked.resize(kInstances);
  out.label_failure.resize(kInstances);
  MemorySink rows;

  SuiteConfig cfg;
  cfg.instances = kInstances;
  cfg.base_seed = kSeed;
  cfg.make_graph = [](dash::util::Rng& rng) {
    return graph::barabasi_albert(48, 2, rng);
  };
  cfg.make_healer = healer_factory(healer);
  cfg.scenario = Scenario::parse(spec);
  cfg.sinks = {&rows};
  cfg.record_rows = true;
  cfg.configure = [publish_every](Network& net) {
    net.add_observer(std::make_unique<BfsReference>());
    net.add_observer(std::make_unique<InvariantObserver>());
    if (publish_every > 0) {
      ServeOptions opts;
      opts.publish_every = publish_every;
      net.add_observer(
          std::make_unique<PublishedLabelCheck>(net.serve(opts)));
    }
  };
  cfg.inspect = [&out](std::size_t i, const Network& net, const Metrics&) {
    const auto* ref =
        dynamic_cast<const BfsReference*>(net.find_observer("bfs-reference"));
    ASSERT_NE(ref, nullptr);
    out.truth[i] = ref->truth;
    out.engine[i] = ref->engine;
    if (const auto* labels = dynamic_cast<const PublishedLabelCheck*>(
            net.find_observer("published-labels"))) {
      out.publishes_checked[i] = labels->checked;
      out.label_failure[i] = labels->failure;
    }
  };

  if (parallel) {
    dash::util::ThreadPool pool(4);
    out.metrics = run_suite(cfg, pool);
  } else {
    out.metrics = run_suite(cfg);
  }
  out.rows = rows.rows();
  return out;
}

/// One case per registered scenario primitive; EveryRegisteredPhase-
/// IsCovered fails when a newly registered one is missing here.
const char* const kPhaseCases[] = {
    "strike:randomx25",                            // strike
    "batch:4,randomx3",                            // batch
    "churn:0.4,0.4x60",                            // churn
    "targeted:maxnodex30",                         // targeted
    "until:10,random",                             // until
    "repeat:3{strike:randomx5;churn:0.3,0.2x10}",  // repeat (nested)
    "floor:16;targeted:maxnode",                   // floor
    "untilfrac:0.5,random",                        // untilfrac
    "join:1x12;strike:maxnodex20",                 // join
    "ramp:0.6,0.2,0.1,0.7x60",                     // ramp
    "mix:2{strike:randomx3},1{batch:3,hubsx1;join:2x2}x8",  // mix
};

class ConnectivityProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ConnectivityProperty, TrackerMatchesBfsSequentialAndParallel) {
  const std::string spec = GetParam();
  for (const char* healer : {"dash", "graph", "none"}) {
    const std::string what = spec + " / " + healer;
    const RunResult seq = run_config(spec, healer, /*parallel=*/false);
    const RunResult par = run_config(spec, healer, /*parallel=*/true);
    ASSERT_EQ(seq.metrics.size(), kInstances) << what;
    ASSERT_EQ(par.metrics.size(), kInstances) << what;
    expect_rows_eq(seq.rows, par.rows, what + " seq vs par");

    std::size_t row = 0;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const std::string inst = what + " instance " + std::to_string(i);
      const std::vector<Structure>& truth = seq.truth[i];
      ASSERT_FALSE(truth.empty()) << inst;
      expect_metrics_eq(seq.metrics[i], par.metrics[i], inst + " seq vs par");
      expect_structures_eq(truth, par.truth[i], inst + " par reference");
      // Every per-event engine answer, sequential and pooled.
      expect_structures_eq(truth, seq.engine[i], inst + " seq engine");
      expect_structures_eq(truth, par.engine[i], inst + " par engine");
      // The final Metrics and the per-event rows (one row per round or
      // join, after the attach sample).
      const Metrics& m = seq.metrics[i];
      EXPECT_EQ(m.components, truth.back().count) << inst;
      EXPECT_EQ(m.largest_component, truth.back().largest) << inst;
      EXPECT_EQ(m.stayed_connected,
                std::all_of(truth.begin(), truth.end(),
                            [](const Structure& s) { return s.connected; }))
          << inst;
      // The battery (with its tracker cross-check) finds nothing but
      // the first disconnection the reference sees.
      std::string want_violation;
      for (std::size_t e = 1; e < truth.size(); ++e, ++row) {
        ASSERT_LT(row, seq.rows.size()) << inst;
        EXPECT_EQ(seq.rows[row].instance, i) << inst << " row " << row;
        EXPECT_EQ(seq.rows[row].largest_component, truth[e].largest)
            << inst << " row " << row;
        if (want_violation.empty() && !truth[e].connected) {
          want_violation = "network disconnected after round " +
                           std::to_string(seq.rows[row].round);
        }
      }
      EXPECT_EQ(m.violation, want_violation) << inst;
    }
    EXPECT_EQ(row, seq.rows.size()) << what;

    // The serving leg: sequential with a publish after every event,
    // pooled with one every third. Serving changes no result, and every
    // publish (attach, cadence, finish) carries the BFS partition.
    for (const std::size_t every : {std::size_t{1}, std::size_t{3}}) {
      const std::string leg = what + " publish_every=" + std::to_string(every);
      const RunResult served = run_config(spec, healer, every != 1, every);
      ASSERT_EQ(served.metrics.size(), kInstances) << leg;
      expect_rows_eq(seq.rows, served.rows, leg);
      for (std::size_t i = 0; i < kInstances; ++i) {
        const std::string inst = leg + " instance " + std::to_string(i);
        expect_metrics_eq(seq.metrics[i], served.metrics[i], inst);
        const std::size_t events = seq.truth[i].size() - 1;
        EXPECT_EQ(served.publishes_checked[i], 2 + events / every) << inst;
        EXPECT_EQ(served.label_failure[i], "") << inst;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPhaseTypes, ConnectivityProperty, ::testing::ValuesIn(kPhaseCases),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

/// The phase name a spec or registry display spelling starts with
/// ("strike[:<attack>][xN]" -> "strike").
std::string phase_name(const std::string& spelling) {
  std::size_t end = 0;
  while (end < spelling.size() &&
         (std::isalnum(static_cast<unsigned char>(spelling[end])) ||
          spelling[end] == '_' || spelling[end] == '-')) {
    ++end;
  }
  return spelling.substr(0, end);
}

TEST(ConnectivityPropertyExtras, EveryRegisteredPhaseIsCovered) {
  std::set<std::string> covered;
  for (const char* spec : kPhaseCases) {
    const Scenario scenario = Scenario::parse(spec);
    for (const auto& phase : scenario.phases()) {
      covered.insert(phase_name(phase->spec()));
    }
  }
  for (const std::string& display : scenario_phase_registry().names()) {
    // Presets expand to primitives and display their bare name;
    // primitives display a parameter placeholder.
    if (display.find('<') == std::string::npos) continue;
    const std::string name = phase_name(display);
    if (name == "trace") continue;  // replays a recorded trace file
    EXPECT_EQ(covered.count(name), 1u)
        << "scenario phase '" << name << "' has no case in kPhaseCases";
  }
}

TEST(ConnectivityPropertyExtras, StopWhenDisconnectedAgreesAcrossModes) {
  // run() + stop_when_disconnected asks every round; an unhealed
  // network must stop at exactly the round the BFS reference first
  // sees it split, reporting the reference's component structure.
  dash::util::Rng rng(99);
  Network net(graph::barabasi_albert(64, 2, rng), "none", 7);
  auto& ref = static_cast<BfsReference&>(
      net.add_observer(std::make_unique<BfsReference>()));
  auto attacker = attack::make_attack("maxnode", 3);
  RunOptions opts;
  opts.stop_when_disconnected = true;
  const Metrics m = net.run(*attacker, opts);

  EXPECT_FALSE(m.stayed_connected);
  ASSERT_EQ(ref.truth.size(), m.deletions + 1);  // attach + every round
  const auto split =
      std::find_if(ref.truth.begin(), ref.truth.end(),
                   [](const Structure& s) { return !s.connected; });
  EXPECT_EQ(split, ref.truth.end() - 1) << "the run went past the split";
  EXPECT_EQ(m.components, ref.truth.back().count);
  EXPECT_EQ(m.largest_component, ref.truth.back().largest);
  expect_structures_eq(ref.truth, ref.engine, "engine answers");
  // The engine paid for every round's check before any observer asked.
  EXPECT_TRUE(std::all_of(ref.checked_before_asking.begin(),
                          ref.checked_before_asking.end(),
                          [](bool checked) { return checked; }));
}

TEST(ConnectivityPropertyExtras, AmortizedBatterySeesSameViolations) {
  // battery_every must not change WHETHER a healthy run is clean, and
  // the connectivity part still fires every round.
  for (const std::size_t cadence : {std::size_t{1}, std::size_t{7},
                                    std::size_t{0}}) {
    dash::util::Rng rng(5);
    graph::Graph g = graph::barabasi_albert(96, 2, rng);
    Network net(std::move(g), "dash", 11);
    InvariantOptions opts;
    opts.battery_every = cadence;
    net.add_observer(std::make_unique<InvariantObserver>(opts));
    const Metrics m = net.play(Scenario::parse("targeted:neighborofmax"), 3);
    EXPECT_TRUE(m.violation.empty())
        << "cadence " << cadence << ": " << m.violation;
    EXPECT_TRUE(m.stayed_connected);
  }
}

}  // namespace
}  // namespace dash::api
