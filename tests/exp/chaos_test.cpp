// Chaos-plan tests: spec parsing, the no-op paths of chaos_strike,
// and child-process status formatting. The lethal paths (a
// strike actually delivering SIGKILL, torn half-line writes recovered
// by --resume) are exercised end-to-end by the replay_chaos smoke.
#include "exp/chaos.h"

#include <gtest/gtest.h>

#include <csignal>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "exp/process.h"

namespace dash::exp {
namespace {

TEST(Chaos, ParsesKillAndTorn) {
  const ChaosPlan kill = parse_chaos("kill:7");
  EXPECT_EQ(kill.kind, ChaosPlan::Kind::kKill);
  EXPECT_EQ(kill.cell, 7u);
  EXPECT_TRUE(kill.armed());

  const ChaosPlan torn = parse_chaos("torn:0");
  EXPECT_EQ(torn.kind, ChaosPlan::Kind::kTorn);
  EXPECT_EQ(torn.cell, 0u);
  EXPECT_TRUE(torn.armed());

  EXPECT_FALSE(parse_chaos("").armed());
}

TEST(Chaos, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_chaos("kill"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("kill:"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("kill:x"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("kill:1x"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("kill:-1"), std::invalid_argument);
  EXPECT_THROW(parse_chaos("maim:3"), std::invalid_argument);
  EXPECT_THROW(parse_chaos(":3"), std::invalid_argument);
}

TEST(Chaos, StrikeIsNoOpWhenUnarmedOrOffTarget) {
  std::ostringstream out;
  chaos_strike(ChaosPlan{}, 0, out, "record");
  ChaosPlan plan;
  plan.kind = ChaosPlan::Kind::kKill;
  plan.cell = 3;
  chaos_strike(plan, 2, out, "record");  // wrong cell: survives
  plan.kind = ChaosPlan::Kind::kTorn;
  chaos_strike(plan, 4, out, "record");
  EXPECT_EQ(out.str(), "");  // nothing written on any no-op path
}

using ChaosDeathTest = ::testing::Test;

TEST(ChaosDeathTest, KillStrikeDiesBeforeWriting) {
  ChaosPlan plan;
  plan.kind = ChaosPlan::Kind::kKill;
  plan.cell = 1;
  EXPECT_EXIT(
      {
        std::ostringstream out;
        chaos_strike(plan, 1, out, "{\"cell\":1}");
      },
      ::testing::KilledBySignal(SIGKILL), "");
}

TEST(ChaosDeathTest, TornStrikeWritesHalfThenDies) {
  ChaosPlan plan;
  plan.kind = ChaosPlan::Kind::kTorn;
  plan.cell = 0;
  EXPECT_EXIT(
      {
        // Route the torn half-line to stderr so the death-test matcher
        // can see the bytes that made it out before SIGKILL.
        chaos_strike(plan, 0, std::cerr, "ABCDEFGH");
      },
      ::testing::KilledBySignal(SIGKILL), "ABCD");
}

TEST(Chaos, WorkerStatusDescribes) {
  WorkerStatus ok;
  ok.exited = true;
  ok.exit_code = 0;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.describe(), "ok");

  WorkerStatus bad = ok;
  bad.exit_code = 2;
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.describe(), "exit 2");

  WorkerStatus killed;
  killed.signaled = true;
  killed.signal_no = SIGKILL;
  EXPECT_FALSE(killed.ok());
  EXPECT_EQ(killed.describe(), "killed by signal 9 (Killed)");

  WorkerStatus lost;
  EXPECT_FALSE(lost.ok());
  EXPECT_EQ(lost.describe(), "wait failed");
}

}  // namespace
}  // namespace dash::exp
