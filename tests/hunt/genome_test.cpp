// genome_test.cpp -- hunt::AttackGenome: the strict candidate grammar
// (parse -> canonical spec fixed points, scenario compatibility,
// rejection of everything outside GenomeLimits) and the shared
// mutation kit (closure under the grammar, seed determinism, and the
// scenario-aware trace operators it lends to replay::fuzz_trace).
#include "hunt/genome.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/scenario.h"
#include "exp/spec.h"
#include "hunt/mutation.h"
#include "replay/recorder.h"
#include "replay/trace.h"
#include "util/rng.h"

namespace dash::hunt {
namespace {

// ---- parse / canonicalize --------------------------------------------

TEST(GenomeParse, CanonicalSpecIsAFixedPoint) {
  const std::string spec =
      "strike:maxdeltax12;churn:0.3,0.1x50;batch:8,hubsx3;join:4x15;"
      "ramp:0,0.5,1,0x10;mix:2{strike:rank:2x1},1{join:2x3}x5";
  const AttackGenome g = AttackGenome::parse(spec);
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.spec(), spec);
  EXPECT_EQ(AttackGenome::parse(g.spec()).spec(), spec);
}

TEST(GenomeParse, NonDefaultAttachIsPreserved) {
  EXPECT_EQ(AttackGenome::parse("churn:0.5,0.5,3x7").spec(),
            "churn:0.5,0.5,3x7");
  EXPECT_EQ(AttackGenome::parse("churn:0.5,0.5,2x7").spec(),
            "churn:0.5,0.5x7");
  EXPECT_EQ(AttackGenome::parse("ramp:0,0,1,1,4x9").spec(),
            "ramp:0,0,1,1,4x9");
}

TEST(GenomeParse, SpecIsValidScenarioSyntax) {
  // Every genome spec must load through the scenario layer unchanged:
  // that is what makes hunted candidates grid-cell citizens.
  const std::string specs[] = {
      "strike:maxnodex3",
      "batch:4,randomx2;join:2x5",
      "churn:1,1x4;ramp:0,0.25,1,0.75x6",
      "mix:3{strike:adaptivex1},1{churn:0.5,0.5x2}x4",
  };
  for (const std::string& s : specs) {
    const AttackGenome g = AttackGenome::parse(s);
    EXPECT_EQ(api::Scenario::parse(g.spec()).spec(), g.spec()) << s;
  }
}

TEST(GenomeParse, HashIsStableAndDiscriminates) {
  const AttackGenome a = AttackGenome::parse("strike:maxnodex3");
  EXPECT_EQ(a.hash(), AttackGenome::parse("strike:maxnodex3").hash());
  EXPECT_NE(a.hash(), AttackGenome::parse("strike:maxnodex4").hash());
  EXPECT_EQ(a.hash_hex().size(), 16u);
}

TEST(GenomeParse, RejectsOutsideTheStrictGrammar) {
  // The genome grammar is narrower than the scenario grammar: every
  // move needs an explicit x<count>, even where the scenario layer
  // would default it.
  EXPECT_THROW(AttackGenome::parse(""), std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("strike:maxnodex3;;join:2x1"),
               std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("shake:3x1"), std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("strike:maxnode"),
               std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("join:2"), std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("strike:maxnodex0"),
               std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("strike:maxnodex9999"),
               std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("strike:nosuchx3"),
               std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("churn:0.3x5"), std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("churn:2,0x5"), std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("join:0x5"), std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("batch:4x3"), std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("mix:0{join:2x1}x2"),
               std::invalid_argument);
  EXPECT_THROW(AttackGenome::parse("mix:1{mix:1{join:2x1}x2}x2"),
               std::invalid_argument);
}

TEST(GenomeParse, RejectionsNameTheGrammarAndToken) {
  // Genome moves tokenize through the scenario layer's grammar, but a
  // rejected genome still reports itself as a hunt input: every error
  // says "hunt" and quotes the offending text.
  const std::pair<const char*, const char*> cases[] = {
      {"", "''"},
      {"strike:maxnodex3;;join:2x1", "strike:maxnodex3;;join:2x1"},
      {"strike:maxnodex3}", "strike:maxnodex3}"},
      {"shake:3x1", "shake:3x1"},
      {"strike:maxnode", "strike:maxnode"},
      {"join:2", "join:2"},
      {"strike:maxnodex0", "strike:maxnodex0"},
      {"strike:maxnodex9999", "strike:maxnodex9999"},
      {"strike:nosuchx3", "nosuch"},
      {"churn:0.3x5", "churn:0.3x5"},
      {"churn:2,0x5", "'2'"},
      {"join:0x5", "'0'"},
      {"batch:4x3", "batch:4x3"},
      {"batch:4,sidewaysx3", "sideways"},
      {"mix:0{join:2x1}x2", "mix:0{join:2x1}x2"},
      {"mix:1{mix:1{join:2x1}x2}x2", "mix:1{mix:1{join:2x1}x2}x2"},
      {"mix:1{join:2x1},2x3", "'2'"},
  };
  for (const auto& [spec, token] : cases) {
    try {
      AttackGenome::parse(spec);
      ADD_FAILURE() << "genome '" << spec << "' unexpectedly parsed";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("hunt"), std::string::npos) << spec << ": "
                                                     << msg;
      EXPECT_NE(msg.find(token), std::string::npos) << spec << ": " << msg;
    }
  }
}

TEST(GenomeParse, RejectsTooManyMoves) {
  std::string spec = "strike:maxnodex1";
  for (std::size_t i = 0; i < genome_limits().max_moves; ++i) {
    spec += ";strike:maxnodex1";
  }
  EXPECT_THROW(AttackGenome::parse(spec), std::invalid_argument);
}

// ---- mutation kit -----------------------------------------------------

TEST(MutationKit, OperatorsStayInsideTheGrammar) {
  util::Rng rng(42);
  AttackGenome g = random_genome(rng);
  for (int i = 0; i < 200; ++i) {
    mutate_genome(g, rng);
    ASSERT_GE(g.size(), 1u);
    ASSERT_LE(g.size(), genome_limits().max_moves);
    // Every mutant re-parses from its own canonical text.
    ASSERT_EQ(AttackGenome::parse(g.spec()).spec(), g.spec());
  }
}

TEST(MutationKit, MutationIsSeedDeterministic) {
  util::Rng a(7);
  util::Rng b(7);
  AttackGenome ga = random_genome(a);
  AttackGenome gb = random_genome(b);
  EXPECT_EQ(ga.spec(), gb.spec());
  for (int i = 0; i < 50; ++i) {
    mutate_genome(ga, a);
    mutate_genome(gb, b);
    ASSERT_EQ(ga.spec(), gb.spec()) << "diverged at edit " << i;
  }
}

TEST(MutationKit, CrossoverSplicesValidGenomes) {
  util::Rng rng(3);
  const AttackGenome a = random_genome(rng);
  const AttackGenome b = random_genome(rng);
  for (int i = 0; i < 50; ++i) {
    const AttackGenome child = crossover(a, b, rng);
    ASSERT_GE(child.size(), 1u);
    ASSERT_LE(child.size(), genome_limits().max_moves);
    ASSERT_EQ(AttackGenome::parse(child.spec()).spec(), child.spec());
  }
}

TEST(MutationKit, BredGenomesAreScenarioCanonical) {
  // The one-grammar contract over everything the search breeds: the
  // genome parser, the genome printer and the scenario parser agree on
  // every candidate, so a hunted spec means the same to both layers.
  util::Rng rng(2024);
  AttackGenome g = random_genome(rng);
  for (int i = 0; i < 12000; ++i) {
    if (i % 16 == 0) {
      g = random_genome(rng);
    } else if (i % 4 == 0) {
      g = crossover(g, random_genome(rng), rng);
    } else {
      mutate_genome(g, rng);
    }
    const std::string spec = g.spec();
    ASSERT_EQ(AttackGenome::parse(spec).spec(), spec) << "step " << i;
    ASSERT_EQ(api::Scenario::parse(spec).spec(), spec) << "step " << i;
  }
}

// ---- scenario-aware trace operators -----------------------------------

replay::Trace tiny_trace() {
  replay::RecordConfig cfg;
  cfg.make_graph = exp::make_family("ba", 24, 2);
  cfg.scenario = api::Scenario::parse("churn:1,1x6;strike:maxnodex3");
  cfg.seed = 5;
  std::ostringstream os;
  replay::record_scenario(cfg, os);
  std::istringstream in(os.str());
  return replay::load_trace(in);
}

TEST(MutationKit, ReorderTracePhasesIsDeterministicAndStructural) {
  const replay::Trace golden = tiny_trace();
  replay::Trace t1 = golden;
  replay::Trace t2 = golden;
  util::Rng r1(9);
  util::Rng r2(9);
  EXPECT_EQ(reorder_trace_phases(t1, r1), reorder_trace_phases(t2, r2));
  // Same seed, same event stream; reordering never loses events.
  ASSERT_EQ(t1.events.size(), t2.events.size());
  EXPECT_EQ(t1.events.size(), golden.events.size());
  for (std::size_t i = 0; i < t1.events.size(); ++i) {
    EXPECT_EQ(t1.events[i].kind, t2.events[i].kind) << i;
    EXPECT_EQ(t1.events[i].nodes, t2.events[i].nodes) << i;
  }
}

TEST(MutationKit, PerturbTraceChurnChangesDensity) {
  replay::Trace t = tiny_trace();
  const std::size_t before = t.events.size();
  util::Rng rng(11);
  bool changed = false;
  for (int i = 0; i < 20 && !changed; ++i) {
    changed = perturb_trace_churn(t, rng);
  }
  EXPECT_TRUE(changed);
  EXPECT_NE(t.events.size(), before);
}

}  // namespace
}  // namespace dash::hunt
