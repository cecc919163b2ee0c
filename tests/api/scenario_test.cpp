// scenario_test.cpp -- the declarative scenario layer: spec parsing
// (round-trip, malformed inputs, registry errors), phase execution
// semantics under Network::play, and sequential-vs-parallel
// determinism of the scenario-driven run_suite.
#include "api/scenario.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "api/api.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dash::api {
namespace {

using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

Network make_net(std::size_t n, std::uint64_t seed,
                 const std::string& healer = "dash") {
  Rng rng(seed);
  Graph g = graph::barabasi_albert(n, 2, rng);
  return Network(std::move(g), core::make_strategy(healer), rng);
}

std::string what_of(const std::string& spec) {
  try {
    Scenario::parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "spec '" << spec << "' unexpectedly parsed";
  return "";
}

/// Every row one play emits (CsvStreamSink's formatting), so two plays
/// compare event for event.
std::vector<std::vector<std::string>> play_rows(const std::string& spec,
                                                std::size_t n,
                                                std::uint64_t seed) {
  auto net = make_net(n, seed);
  MemorySink sink;
  SinkObserver rows(sink);
  net.add_observer(&rows);
  net.play(Scenario::parse(spec), seed);
  std::vector<std::vector<std::string>> out;
  for (const RoundRow& row : sink.rows()) {
    out.push_back(round_row_fields(row));
  }
  return out;
}

/// The deleted node of every deletion round, in order.
std::vector<std::uint32_t> victims(const std::string& spec, std::size_t n,
                                   std::uint64_t seed) {
  auto net = make_net(n, seed);
  MemorySink sink;
  SinkObserver rows(sink);
  net.add_observer(&rows);
  net.play(Scenario::parse(spec), seed);
  std::vector<std::uint32_t> out;
  for (const RoundRow& row : sink.rows()) {
    if (!row.is_join) out.push_back(row.event_node);
  }
  return out;
}

// ---- parsing: canonical forms and round trips ------------------------

TEST(ScenarioParse, IssueExampleRoundTrips) {
  const auto sc = Scenario::parse("churn:0.3,0.1x500;batch:8x50");
  EXPECT_EQ(sc.size(), 2u);
  EXPECT_EQ(sc.spec(), "churn:0.3,0.1x500;batch:8,hubsx50");
  // The canonical form is a fixed point of parse().
  EXPECT_EQ(Scenario::parse(sc.spec()).spec(), sc.spec());
}

TEST(ScenarioParse, EveryPhaseKindRoundTrips) {
  const std::string canon =
      "strike:maxnodex5;batch:4,randomx3;churn:0.5,0.25,3x10;"
      "targeted:neighborofmaxx7;until:16,maxnode;"
      "repeat:2{strike:randomx1;floor:4};floor:2";
  const auto sc = Scenario::parse(canon);
  EXPECT_EQ(sc.spec(), canon);
  EXPECT_EQ(Scenario::parse(sc.spec()).spec(), canon);
}

TEST(ScenarioParse, ShorthandsNormalize) {
  EXPECT_EQ(Scenario::parse("strike").spec(), "strike:maxnodex1");
  EXPECT_EQ(Scenario::parse("strike:40").spec(), "strike:maxnodex40");
  EXPECT_EQ(Scenario::parse("strike:randomx3").spec(), "strike:randomx3");
  EXPECT_EQ(Scenario::parse("targeted").spec(), "targeted:maxnode");
  EXPECT_EQ(Scenario::parse("batch:8").spec(), "batch:8,hubs");
  EXPECT_EQ(Scenario::parse("until:10").spec(), "until:10,maxnode");
  // Aliases and case-insensitive names resolve to the same phases.
  EXPECT_EQ(Scenario::parse("DELETE:3").spec(), "strike:maxnodex3");
  EXPECT_EQ(Scenario::parse("batch_strike:2x1").spec(), "batch:2,hubsx1");
  EXPECT_EQ(Scenario::parse("run:maxnode").spec(), "targeted:maxnode");
}

TEST(ScenarioParse, EveryRegisteredSpellingIsAFixedPoint) {
  // Samples for every registered display spelling, aliases and
  // shorthands included; a newly registered phase without samples fails
  // here. Replay traces, hunt spools and leaderboards store canonical
  // forms, so each must print back to itself.
  const std::map<std::string, std::vector<std::string>> samples = {
      {"strike[:<attack>][xN]",
       {"strike", "strike:7", "delete:randomx3", "strike:rank:2x4"}},
      {"batch:<k>[,hubs|random][xN]",
       {"batch:8", "batch:3,randomx2", "batch_strike:2x1",
        "batchstrike:4,hubs"}},
      {"churn:<join_rate>,<leave_rate>[,<attach>]xN",
       {"churn:0.3,0.1x500", "churn:1,0,3x2", "churn:0.5,0.5,2x7"}},
      {"targeted[:<attack>][xN]",
       {"targeted", "targeted:neighborofmaxx7", "targeted_attack:random",
        "run:maxdelta"}},
      {"until:<n>[,<attack>]",
       {"until:10", "until_n_left:5,random", "untilnleft:3"}},
      {"repeat:<k>{...}",
       {"repeat:2{strike;floor:4}", "repeat:1{repeat:2{join}}"}},
      {"floor:<min_alive>", {"floor:2"}},
      {"untilfrac:<frac>[,<attack>]",
       {"untilfrac:0.5", "until_frac:0.25,random", "untilfrac:1"}},
      {"join[:<attach>][xN]", {"join", "join:4x15"}},
      {"ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN",
       {"ramp:0,0.5,1,0x10", "ramp:0.3,0.1,0.3,0.1x5", "ramp:0,0,1,1,3x8"}},
      {"mix:<w>{...},<w>{...}xN",
       {"mix:2{strike},1{churn:0.5,0.5x3}x4",
        "mix:1{mix:1{join}x2;floor:3}x2"}},
      {"paper-churn", {"paper-churn"}},
      {"max-degree-attack", {"max-degree-attack"}},
      {"until-half", {"until-half"}},
      {"until-quarter", {"until-quarter"}},
      // Needs a trace file; trace_phase_test round-trips it.
      {"trace:<file>", {}},
  };
  for (const std::string& name : scenario_phase_registry().names()) {
    const auto it = samples.find(name);
    ASSERT_NE(it, samples.end()) << "no samples for '" << name << "'";
    for (const std::string& sample : it->second) {
      const std::string canon = Scenario::parse(sample).spec();
      EXPECT_EQ(Scenario::parse(canon).spec(), canon) << sample;
    }
  }
}

TEST(ScenarioParse, RejectionsNameTheGrammarAndToken) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "''"},
      {"strike;;strike", "strike;;strike"},
      {"strike:", "strike:"},
      {"strike:0", "strike:0"},
      {"strike:maxnodex0", "strike:maxnodex0"},
      {"strike:40x5", "'40'"},
      {"batch:0", "batch:0"},
      {"batch:4x0", "batch:4x0"},
      {"batch:4,sideways", "sideways"},
      {"churn:0.5,0.5x0", "churn:0.5,0.5x0"},
      {"churn:0.5,0.5", "churn:0.5,0.5"},
      {"churn:1.5,0x3", "'1.5'"},
      {"churn:abc,0x3", "'abc'"},
      {"churn:0.5x3", "churn:0.5x3"},
      {"churn:0.5,0.5,0x3", "churn:0.5,0.5,0x3"},
      {"targeted:nosuchattack", "nosuchattack"},
      {"until:0", "until:0"},
      {"until:many", "until:many"},
      {"until:5,nosuchattack", "nosuchattack"},
      {"untilfrac:0", "untilfrac:0"},
      {"untilfrac:1.5", "'1.5'"},
      {"repeat:0{strike}", "repeat:0{strike}"},
      {"repeat:2{strike", "repeat:2{strike"},
      {"repeat:2strike}", "repeat:2strike}"},
      {"floor:0", "floor:0"},
      {"floor:two", "floor:two"},
      {"join:0x3", "join:0x3"},
      {"ramp:0,0.5,1,0", "ramp:0,0.5,1,0"},
      {"ramp:0,0.5x10", "ramp:0,0.5x10"},
      {"ramp:0,2,1,0x10", "'2'"},
      {"mix:1{strike:maxnodex1}", "mix:1{strike:maxnodex1}"},
      {"mix:0{strike:maxnodex1}x2", "mix:0{strike:maxnodex1}x2"},
      {"mix:1{strike},2x3", "'2'"},
      {"paper-churn:3", "paper-churn"},
      {"shake:3", "shake:3"},
  };
  for (const auto& [spec, token] : cases) {
    const std::string msg = what_of(spec);
    EXPECT_NE(msg.find("scenario"), std::string::npos) << spec << ": "
                                                         << msg;
    EXPECT_NE(msg.find(token), std::string::npos) << spec << ": " << msg;
  }
}

TEST(ScenarioParse, BuilderMatchesParsedSpec) {
  const auto built = Scenario()
                         .churn(0.3, 0.1, 500)
                         .batch_strike(8, 50)
                         .targeted("neighborofmax", 7)
                         .floor(2)
                         .spec();
  EXPECT_EQ(built, Scenario::parse(built).spec());
  EXPECT_EQ(built,
            "churn:0.3,0.1x500;batch:8,hubsx50;targeted:neighborofmaxx7;"
            "floor:2");
}

TEST(ScenarioParse, ScenarioIsACopyableValue) {
  const auto a = Scenario::parse("strike:3;churn:1,0x2");
  Scenario b = a;  // deep copy
  b.strike(1, "random");
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(a.spec(), "strike:maxnodex3;churn:1,0x2");
}

// ---- parsing: malformed specs ---------------------------------------

TEST(ScenarioParse, EmptyPhasesAreRejected) {
  EXPECT_THROW(Scenario::parse(""), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike;;strike"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse(";strike"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike:"), std::invalid_argument);
}

TEST(ScenarioParse, ZeroCountsAreRejected) {
  EXPECT_THROW(Scenario::parse("strike:0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike:maxnodex0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("batch:0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("batch:4x0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:0.5,0.5x0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("repeat:0{strike}"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("until:0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("floor:0"), std::invalid_argument);
}

TEST(ScenarioParse, UnknownPhaseListsRegisteredSpellings) {
  const std::string msg = what_of("shake:3");
  for (const char* expected :
       {"strike", "batch", "churn", "targeted", "until", "repeat",
        "floor"}) {
    EXPECT_NE(msg.find(expected), std::string::npos)
        << "error should list '" << expected << "': " << msg;
  }
}

TEST(ScenarioParse, ChurnValidatesRatesAndCount) {
  EXPECT_THROW(Scenario::parse("churn:0.5,0.5"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:1.5,0x3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:-0.1,0x3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:abc,0x3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:0.5x3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:0.5,0.5,0x3"),
               std::invalid_argument);
}

TEST(ScenarioParse, UnknownAttackNamesFailAtParseTime) {
  // Attack specs resolve through attack_registry() when a phase runs,
  // but the spelling is validated when the scenario is built so the
  // error surfaces where the spec was written.
  EXPECT_THROW(Scenario::parse("targeted:nosuchattack"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike:nosuchattackx3"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike:40x5"),  // "40" is not an attack
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("until:5,nosuchattack"),
               std::invalid_argument);
  EXPECT_THROW(Scenario().targeted("nosuchattack"),
               std::invalid_argument);
  const std::string msg = what_of("targeted:nosuchattack");
  EXPECT_NE(msg.find("maxnode"), std::string::npos) << msg;
}

TEST(ScenarioParse, MalformedStructuresAreRejected) {
  EXPECT_THROW(Scenario::parse("batch:4,sideways"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("repeat:2{strike"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("repeat:2strike}"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("until:many"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("floor:two"), std::invalid_argument);
}

// ---- join / ramp / mix (the hunt alphabet) ---------------------------

TEST(ScenarioParse, JoinRampMixRoundTrip) {
  // join: attach defaults to 2, count to 1.
  EXPECT_EQ(Scenario::parse("join").spec(), "join:2x1");
  EXPECT_EQ(Scenario::parse("join:4x15").spec(), "join:4x15");
  // ramp: attach elided from the canonical form when it is the default.
  EXPECT_EQ(Scenario::parse("ramp:0,0.5,1,0x10").spec(),
            "ramp:0,0.5,1,0x10");
  EXPECT_EQ(Scenario::parse("ramp:0.3,0.1,0.3,0.1,3x5").spec(),
            "ramp:0.3,0.1,0.3,0.1,3x5");
  EXPECT_EQ(Scenario::parse("ramp:0,0,1,1,2x8").spec(), "ramp:0,0,1,1x8");
  // mix: weighted arms round-trip with their arm bodies canonicalized.
  const std::string mix = "mix:2{strike:maxnodex1},1{churn:0.5,0.5x3}x4";
  EXPECT_EQ(Scenario::parse(mix).spec(), mix);
  EXPECT_EQ(Scenario::parse(Scenario::parse(mix).spec()).spec(), mix);
}

TEST(ScenarioParse, JoinRampMixRejectMalformed) {
  EXPECT_THROW(Scenario::parse("join:0x3"), std::invalid_argument);
  // ramp and mix both require an explicit xN event/draw count.
  EXPECT_THROW(Scenario::parse("ramp:0,0.5,1,0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("mix:1{strike:maxnodex1}"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("ramp:0,0.5x10"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("ramp:0,2,1,0x10"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("mix:0{strike:maxnodex1}x2"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("mix:1{}x2"), std::invalid_argument);
}

TEST(ScenarioPlay, JoinGrowsTheNetwork) {
  auto net = make_net(16, 9);
  const auto m = net.play(Scenario::parse("join:3x10"), 9);
  EXPECT_EQ(m.joins, 10u);
  EXPECT_EQ(net.graph().num_alive(), 26u);
}

TEST(ScenarioPlay, RampWithFlatRatesMatchesChurn) {
  // Equal start/end rates consume the same coin stream as the
  // equivalent churn phase, event for event.
  auto a = make_net(16, 10);
  const auto ma = a.play(Scenario::parse("ramp:1,1,1,1x10"), 10);
  auto b = make_net(16, 10);
  const auto mb = b.play(Scenario::parse("churn:1,1x10"), 10);
  EXPECT_EQ(ma.joins, mb.joins);
  EXPECT_EQ(ma.deletions, mb.deletions);
  EXPECT_EQ(ma.edges_added, mb.edges_added);
  // Fractional rates and a non-default attach: the same rows, and each
  // spelling prints as itself.
  const auto churn = play_rows("churn:0.3,0.1,3x200", 32, 10);
  EXPECT_EQ(play_rows("ramp:0.3,0.1,0.3,0.1,3x200", 32, 10), churn);
  EXPECT_GT(churn.size(), 40u);
  EXPECT_EQ(Scenario::parse("ramp:0.3,0.1,0.3,0.1,3x200").spec(),
            "ramp:0.3,0.1,0.3,0.1,3x200");
}

TEST(ScenarioPlay, AttackSpellingsShareOneLoop) {
  // strike:<a>xN is targeted:<a>xN under another name, and until:k is
  // untilfrac at k/n: the same victims in the same order.
  for (const char* attack : {"maxnode", "random", "neighborofmax"}) {
    const std::string a = attack;
    const auto struck = victims("strike:" + a + "x20", 48, 21);
    EXPECT_EQ(struck.size(), 20u) << a;
    EXPECT_EQ(victims("targeted:" + a + "x20", 48, 21), struck) << a;
    const auto until = victims("until:16," + a, 64, 22);
    EXPECT_EQ(until.size(), 48u) << a;
    EXPECT_EQ(victims("untilfrac:0.25," + a, 64, 22), until) << a;
  }
}

TEST(ScenarioPlay, RampInterpolatesRates) {
  auto net = make_net(32, 11);
  const auto m = net.play(Scenario::parse("ramp:0,0,1,1x21"), 11);
  // Rates climb 0 -> 1: the first tick never fires, the last always
  // does.
  EXPECT_GT(m.joins, 0u);
  EXPECT_GT(m.deletions, 0u);
  EXPECT_LT(m.joins, 21u);
}

TEST(ScenarioPlay, MixSingleArmRunsEveryDraw) {
  auto net = make_net(16, 12);
  const auto m = net.play(Scenario::parse("mix:1{join:2x1}x6"), 12);
  EXPECT_EQ(m.joins, 6u);
}

TEST(ScenarioPlay, MixDrawsAreSeedDeterministic) {
  const auto spec =
      Scenario::parse("mix:3{strike:maxnodex1},1{join:2x1}x8");
  auto a = make_net(32, 13);
  auto b = make_net(32, 13);
  const auto ma = a.play(spec, 13);
  const auto mb = b.play(spec, 13);
  EXPECT_EQ(ma.deletions, mb.deletions);
  EXPECT_EQ(ma.joins, mb.joins);
  // Every draw runs exactly one single-event arm.
  EXPECT_EQ(ma.deletions + ma.joins, 8u);
}

// ---- play semantics ---------------------------------------------------

TEST(ScenarioPlay, StrikeDeletesExactlyCount) {
  auto net = make_net(32, 1);
  const auto m = net.play(Scenario::parse("strike:5"), 1);
  EXPECT_EQ(m.deletions, 5u);
  EXPECT_EQ(net.graph().num_alive(), 27u);
}

TEST(ScenarioPlay, TargetedRunsToSingleNodeAndRespectsCap) {
  auto full = make_net(64, 2);
  const auto mf = full.play(Scenario::parse("targeted:neighborofmax"), 2);
  EXPECT_EQ(mf.deletions, 63u);
  EXPECT_TRUE(mf.stayed_connected);

  auto capped = make_net(64, 2);
  const auto mc =
      capped.play(Scenario::parse("targeted:neighborofmaxx7"), 2);
  EXPECT_EQ(mc.deletions, 7u);
}

TEST(ScenarioPlay, UntilLeavesExactlyN) {
  auto net = make_net(64, 3);
  net.play(Scenario::parse("until:10"), 3);
  EXPECT_EQ(net.graph().num_alive(), 10u);
}

TEST(ScenarioPlay, FloorStopsDeletions) {
  auto net = make_net(32, 4);
  const auto m = net.play(Scenario::parse("floor:20;targeted:maxnode"), 4);
  EXPECT_EQ(net.graph().num_alive(), 20u);
  EXPECT_EQ(m.deletions, 12u);
}

TEST(ScenarioPlay, BatchRoundsDeleteKPerRound) {
  auto net = make_net(48, 5);
  const auto m = net.play(Scenario::parse("batch:4x3"), 5);
  EXPECT_EQ(m.deletions, 12u);
  EXPECT_TRUE(m.stayed_connected);
}

TEST(ScenarioPlay, UnboundedBatchLeavesAtMostK) {
  auto net = make_net(33, 6);
  net.play(Scenario::parse("batch:8,random"), 6);
  // 33 -> 25 -> 17 -> 9; a further batch of 8 would leave 1 >= floor,
  // so it runs too.
  EXPECT_EQ(net.graph().num_alive(), 1u);
}

TEST(ScenarioPlay, ChurnFullRatesJoinAndLeaveEveryTick) {
  auto net = make_net(16, 7);
  const auto m = net.play(Scenario::parse("churn:1,1x10"), 7);
  EXPECT_EQ(m.joins, 10u);
  EXPECT_EQ(m.deletions, 10u);
  EXPECT_EQ(net.graph().num_alive(), 16u);
}

TEST(ScenarioPlay, RepeatMultipliesItsBody) {
  auto net = make_net(64, 8);
  const auto m =
      net.play(Scenario::parse("repeat:3{strike:2;churn:1,0x1}"), 8);
  EXPECT_EQ(m.deletions, 6u);
  EXPECT_EQ(m.joins, 3u);
}

TEST(ScenarioPlay, CustomAttackerFactoryDrivesTargetedPhase) {
  // A caller-owned adversary (the LevelAttack pattern) borrowed into
  // the scenario through a factory.
  class FirstAlive final : public attack::AttackStrategy {
   public:
    std::string name() const override { return "first-alive"; }
    NodeId select(const Graph& g, const core::HealingState&) override {
      ++selections;
      return g.alive_nodes().front();
    }
    std::unique_ptr<attack::AttackStrategy> clone() const override {
      return std::make_unique<FirstAlive>(*this);
    }
    int selections = 0;
  };

  FirstAlive atk;
  const auto sc = Scenario().targeted(
      [&atk](std::uint64_t) {
        return std::make_unique<attack::BorrowedAttack>(atk);
      },
      "first-alive", 4);
  EXPECT_EQ(sc.spec(), "targeted:<first-alive>x4");

  auto net = make_net(24, 9);
  const auto m = net.play(sc, 9);
  EXPECT_EQ(m.deletions, 4u);
  EXPECT_EQ(atk.selections, 4);
}

TEST(ScenarioPlay, StopConditionEndsThePlayMidPhase) {
  auto net = make_net(64, 15);
  PlayOptions opts;
  opts.stop_condition = [](const Network& engine) {
    return engine.graph().num_alive() <= 32;
  };
  const auto m =
      net.play(Scenario::parse("targeted:maxnode"), 15, opts);
  EXPECT_EQ(net.graph().num_alive(), 32u);
  EXPECT_EQ(m.deletions, 32u);
}

TEST(ScenarioPlay, SameSeedSameMetrics) {
  const auto sc = Scenario::parse("churn:0.6,0.4x40;batch:3x2;until:5");
  auto a = make_net(48, 10);
  auto b = make_net(48, 10);
  const auto ma = a.play(sc, 77);
  const auto mb = b.play(sc, 77);
  EXPECT_EQ(ma.deletions, mb.deletions);
  EXPECT_EQ(ma.joins, mb.joins);
  EXPECT_EQ(ma.max_delta, mb.max_delta);
  EXPECT_EQ(ma.edges_added, mb.edges_added);
  EXPECT_EQ(ma.max_messages, mb.max_messages);
}

// ---- suite determinism -------------------------------------------------

// ---- named presets and size-relative phases ---------------------------

TEST(ScenarioPresets, ParseAndRoundTripByName) {
  for (const char* name :
       {"paper-churn", "max-degree-attack", "until-half", "until-quarter"}) {
    const auto sc = Scenario::parse(name);
    EXPECT_EQ(sc.spec(), name);
    EXPECT_EQ(Scenario::parse(sc.spec()).spec(), name);
  }
}

TEST(ScenarioPresets, PresetPlaysIdenticallyToItsBody) {
  // "paper-churn" is sugar for its registered body: same seed, same
  // engine state, same metrics.
  auto preset_net = make_net(32, 7);
  const auto preset = preset_net.play(Scenario::parse("paper-churn"), 7);
  auto body_net = make_net(32, 7);
  const auto body = body_net.play(Scenario::parse("churn:0.3,0.1x500"), 7);
  EXPECT_EQ(preset.deletions, body.deletions);
  EXPECT_EQ(preset.joins, body.joins);
  EXPECT_EQ(preset.edges_added, body.edges_added);
  EXPECT_EQ(preset.max_delta, body.max_delta);
  EXPECT_EQ(preset_net.graph().num_alive(), body_net.graph().num_alive());
}

TEST(ScenarioPresets, PresetsTakeNoParameter) {
  EXPECT_THROW(Scenario::parse("paper-churn:3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("until-half:0.2"), std::invalid_argument);
}

TEST(ScenarioPresets, UnknownPhaseErrorListsPresetSpellings) {
  const std::string msg = what_of("no-such-preset:1");
  EXPECT_NE(msg.find("paper-churn"), std::string::npos);
  EXPECT_NE(msg.find("until-quarter"), std::string::npos);
  EXPECT_NE(msg.find("churn"), std::string::npos);  // primitives too
}

TEST(ScenarioPlay, UntilFracIsSizeRelative) {
  const auto sc = Scenario::parse("untilfrac:0.25,maxnode");
  EXPECT_EQ(sc.spec(), "untilfrac:0.25,maxnode");
  for (const std::size_t n : {32u, 64u}) {
    auto net = make_net(n, 8);
    net.play(sc, 8);
    EXPECT_EQ(net.graph().num_alive(), n / 4) << "n=" << n;
  }
  // Odd sizes round the survivor count up (ceil).
  auto net = make_net(33, 8);
  net.play(Scenario::parse("untilfrac:0.5"), 8);
  EXPECT_EQ(net.graph().num_alive(), 17u);
}

TEST(ScenarioParse, UntilFracValidatesItsFraction) {
  EXPECT_THROW(Scenario::parse("untilfrac:0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("untilfrac:1.5"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("untilfrac:"), std::invalid_argument);
  EXPECT_EQ(Scenario::parse("untilfrac:1").spec(), "untilfrac:1,maxnode");
}

SuiteConfig churny_suite() {
  SuiteConfig cfg;
  cfg.make_graph = [](Rng& rng) {
    return graph::barabasi_albert(40, 2, rng);
  };
  cfg.make_healer = healer_factory("dash");
  cfg.scenario = Scenario::parse("churn:0.5,0.3x30;batch:3x2;until:8");
  cfg.instances = 8;
  cfg.base_seed = 0xFEED;
  return cfg;
}

TEST(RunSuite, SequentialAndParallelMetricsAreIdentical) {
  const auto cfg = churny_suite();
  const auto serial = run_suite(cfg);
  dash::util::ThreadPool pool(4);
  const auto parallel = run_suite(cfg, pool);

  ASSERT_EQ(serial.size(), 8u);
  ASSERT_EQ(parallel.size(), 8u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].deletions, parallel[i].deletions) << i;
    EXPECT_EQ(serial[i].joins, parallel[i].joins) << i;
    EXPECT_EQ(serial[i].max_delta, parallel[i].max_delta) << i;
    EXPECT_EQ(serial[i].max_id_changes, parallel[i].max_id_changes) << i;
    EXPECT_EQ(serial[i].max_messages, parallel[i].max_messages) << i;
    EXPECT_EQ(serial[i].max_messages_sent,
              parallel[i].max_messages_sent)
        << i;
    EXPECT_EQ(serial[i].edges_added, parallel[i].edges_added) << i;
    EXPECT_EQ(serial[i].surrogate_heals, parallel[i].surrogate_heals)
        << i;
    EXPECT_EQ(serial[i].max_stretch, parallel[i].max_stretch) << i;
    EXPECT_EQ(serial[i].stayed_connected, parallel[i].stayed_connected)
        << i;
    EXPECT_EQ(serial[i].violation, parallel[i].violation) << i;
  }
}

TEST(RunSuite, SequentialAndParallelSinkBytesAreIdentical) {
  // The acceptance bar: the full streamed output -- every row and
  // every run summary -- is byte-identical whatever the worker count.
  auto run_to_string = [](dash::util::ThreadPool* pool) {
    std::ostringstream out;
    CsvStreamSink csv(out);
    auto cfg = churny_suite();
    cfg.sinks.push_back(&csv);
    cfg.record_rows = true;
    if (pool != nullptr) {
      run_suite(cfg, *pool);
    } else {
      run_suite(cfg);
    }
    csv.flush();
    return out.str();
  };
  const std::string serial = run_to_string(nullptr);
  dash::util::ThreadPool pool(4);
  const std::string parallel = run_to_string(&pool);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_EQ(serial, parallel);
}

TEST(RunSuite, DifferentSeedsDiffer) {
  auto cfg = churny_suite();
  cfg.instances = 4;
  cfg.base_seed = 1;
  const auto a = run_suite(cfg);
  cfg.base_seed = 2;
  const auto b = run_suite(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= (a[i].edges_added != b[i].edges_added) ||
                (a[i].max_messages != b[i].max_messages);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RunSuite, InspectSeesFinalStatesInOrder) {
  auto cfg = churny_suite();
  cfg.instances = 3;
  std::vector<std::size_t> order;
  cfg.inspect = [&order](std::size_t i, const Network& net,
                         const Metrics& m) {
    order.push_back(i);
    EXPECT_EQ(net.state().max_delta_ever(), m.max_delta);
    EXPECT_EQ(net.rounds(), m.deletions);
  };
  dash::util::ThreadPool pool(3);
  run_suite(cfg, pool);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace dash::api
