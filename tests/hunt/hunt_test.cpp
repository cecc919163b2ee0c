// hunt_test.cpp -- the adversary search engine end to end: registry
// parsing, hard budget accounting, backend-independent determinism
// (sequential vs ThreadPool), spool resume, emitted traces that replay
// bit-identically and round-trip through a grid cell, artifact and
// spool writes that fail naming the file, and the comparison against
// the paper's hand-derived LevelAttack baseline.
#include "hunt/hunt.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/runner.h"
#include "exp/spec.h"
#include "hunt/strategy.h"
#include "replay/play.h"
#include "replay/trace.h"
#include "util/output.h"

namespace dash::hunt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch dir under gtest's temp root.
std::string scratch(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "dash_hunt_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A hunt tiny enough to run in milliseconds but rich enough to fill a
/// leaderboard: 10 distinct candidates on a 24-node BA graph against
/// the degree-capped healer.
HuntConfig tiny(const std::string& state_dir = "") {
  HuntConfig cfg;
  cfg.family = "ba";
  cfg.n = 24;
  cfg.healers = {"capped:2"};
  cfg.instances = 1;
  cfg.seed = 5;
  cfg.budget = 10;
  cfg.strategy = "evolve:6";
  cfg.top_k = 2;
  cfg.threads = 1;
  cfg.state_dir = state_dir;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---- registries -------------------------------------------------------

TEST(HuntRegistry, StrategySpecsResolve) {
  EXPECT_EQ(make_search_strategy("random")->name(), "random");
  EXPECT_EQ(make_search_strategy("greedy:4")->name(), "greedy");
  EXPECT_EQ(make_search_strategy("hillclimb")->name(), "greedy");
  EXPECT_EQ(make_search_strategy("evolve:8")->name(), "evolve");
  EXPECT_EQ(make_search_strategy("ga")->name(), "evolve");
  EXPECT_THROW(make_search_strategy("anneal"), std::invalid_argument);
  EXPECT_THROW(make_search_strategy("random:3"), std::invalid_argument);
  EXPECT_THROW(make_search_strategy("evolve:2"), std::invalid_argument);
}

TEST(HuntRegistry, FitnessSpecsResolve) {
  EXPECT_EQ(FitnessSpec::parse("delta").text, "delta");
  EXPECT_FALSE(FitnessSpec::parse("delta").needs_stretch());
  const FitnessSpec combo = FitnessSpec::parse("combo:1,0.5,2");
  EXPECT_DOUBLE_EQ(combo.w_delta, 1.0);
  EXPECT_DOUBLE_EQ(combo.w_stretch, 0.5);
  EXPECT_DOUBLE_EQ(combo.w_disconnect, 2.0);
  EXPECT_TRUE(combo.needs_stretch());
  EXPECT_EQ(combo.text, "combo:1,0.5,2");
  EXPECT_THROW(FitnessSpec::parse("entropy"), std::invalid_argument);
  EXPECT_THROW(FitnessSpec::parse("combo:0,0,0"), std::invalid_argument);
  EXPECT_THROW(FitnessSpec::parse("combo:1,-1,0"), std::invalid_argument);
}

// ---- budget -----------------------------------------------------------

TEST(Hunt, BudgetIsAHardCap) {
  auto cfg = tiny();
  cfg.budget = 7;
  cfg.strategy = "random";
  const HuntResult r = run_hunt(cfg);
  EXPECT_EQ(r.evaluations, 7u);
  ASSERT_FALSE(r.best.empty());
  EXPECT_LE(r.best.size(), cfg.top_k);
  EXPECT_EQ(r.best.front().rank, 1u);
}

// ---- backend determinism ----------------------------------------------

TEST(Hunt, BackendsProduceIdenticalLeaderboards) {
  auto seq = tiny();
  auto pooled = tiny();
  pooled.threads = 4;

  const HuntResult a = run_hunt(seq);
  const HuntResult b = run_hunt(pooled);

  EXPECT_EQ(a.leaderboard_json, b.leaderboard_json);
  ASSERT_FALSE(a.best.empty());
  ASSERT_FALSE(b.best.empty());
  EXPECT_EQ(a.best.front().genome.spec(), b.best.front().genome.spec());
  EXPECT_DOUBLE_EQ(a.best.front().fitness, b.best.front().fitness);
}

// ---- spool resume -----------------------------------------------------

TEST(Hunt, SpoolResumeReplaysTheSameTrajectory) {
  const std::string dir = scratch("resume");
  auto cfg = tiny(dir);
  const HuntResult first = run_hunt(cfg);
  ASSERT_FALSE(first.leaderboard_path.empty());
  const std::string leaderboard_bytes = slurp(first.leaderboard_path);
  EXPECT_EQ(leaderboard_bytes, first.leaderboard_json);

  // Resume from the spool: every score is a warm cache hit, and the
  // rewritten artifacts are byte-identical.
  auto again = tiny(dir);
  again.resume = true;
  const HuntResult second = run_hunt(again);
  EXPECT_EQ(second.leaderboard_json, first.leaderboard_json);
  EXPECT_EQ(slurp(second.leaderboard_path), leaderboard_bytes);
  fs::remove_all(dir);
}

TEST(Hunt, SpoolFromDifferentConfigIsRejected) {
  const std::string dir = scratch("stale");
  run_hunt(tiny(dir));
  auto other = tiny(dir);
  other.resume = true;
  other.n = 32;  // different evaluation identity
  EXPECT_THROW(run_hunt(other), std::invalid_argument);
  fs::remove_all(dir);
}

TEST(Hunt, SpoolWithABadGenomeFailsNamingTheToken) {
  const std::string dir = scratch("bad_genome");
  run_hunt(tiny(dir));
  // Swap the first scored spec for one with a zero count.
  std::string spool = slurp(dir + "/spool.tsv");
  const std::size_t line = spool.find('\n') + 1;
  spool.replace(line, spool.find('\t', line) - line, "strike:maxnodex0");
  std::ofstream(dir + "/spool.tsv", std::ios::trunc) << spool;
  auto again = tiny(dir);
  again.resume = true;
  try {
    run_hunt(again);
    ADD_FAILURE() << "resume accepted a corrupt spool";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(dir + "/spool.tsv"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hunt move 'strike:maxnodex0'"), std::string::npos)
        << msg;
  }
  fs::remove_all(dir);
}

// ---- unwritable artifacts ---------------------------------------------

/// Run the tiny hunt with `artifact` (a file name inside its state dir)
/// symlinked to /dev/full, where every write fails with ENOSPC. Returns
/// the WriteError message ("" when the hunt passed for success) and
/// the artifact's path.
std::pair<std::string, std::string> hunt_with_full(
    const std::string& tag, const std::string& artifact) {
  const std::string dir = scratch(tag);
  const std::string path = dir + "/" + artifact;
  fs::create_symlink("/dev/full", path);
  std::string error;
  try {
    run_hunt(tiny(dir));
  } catch (const util::WriteError& e) {
    error = e.what();
  }
  fs::remove_all(dir);
  return {error, path};
}

TEST(Hunt, LeaderboardWriteFailureFailsNamingTheFile) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto [error, path] = hunt_with_full("full_board", "HUNT_hunt.json");
  EXPECT_NE(error.find(path), std::string::npos) << "error: " << error;
}

TEST(Hunt, TraceWriteFailureFailsNamingTheFile) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto [error, path] =
      hunt_with_full("full_trace", "HUNT_hunt_best1.trace");
  EXPECT_NE(error.find(path), std::string::npos) << "error: " << error;
}

TEST(Hunt, SpoolWriteFailureFailsNamingTheSpool) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto [error, path] = hunt_with_full("full_spool", "spool.tsv");
  EXPECT_NE(error.find(path), std::string::npos) << "error: " << error;
}

/// Run `cfg`'s hunt as dash_lab does -- a WriteError exits 1 with its
/// message on stderr -- with this process's file size capped at `limit`
/// bytes, so a write past it fails with EFBIG. For an EXPECT_EXIT
/// child: the cap dies with the child.
[[noreturn]] void hunt_with_file_size_limit(const HuntConfig& cfg,
                                            rlim_t limit) {
  std::signal(SIGXFSZ, SIG_IGN);  // fail the write instead of the process
  rlimit cap{};
  if (getrlimit(RLIMIT_FSIZE, &cap) != 0) std::exit(3);
  const rlim_t hard = cap.rlim_max;
  cap.rlim_cur = limit;
  if (setrlimit(RLIMIT_FSIZE, &cap) != 0) std::exit(3);
  int rc = 0;
  std::string error;
  try {
    run_hunt(cfg);
  } catch (const util::WriteError& e) {
    rc = 1;
    error = e.what();
  }
  // The captured stderr is a file too: lift the cap before reporting.
  cap.rlim_cur = hard;
  setrlimit(RLIMIT_FSIZE, &cap);
  if (rc != 0) std::fprintf(stderr, "error: %s\n", error.c_str());
  std::exit(rc);
}

/// Bytes in the spool header line the tiny hunt stamps. Each caller
/// passes its own tag: ctest runs every case as its own process, and a
/// shared directory would let one case's cleanup land in the middle of
/// another's hunt.
rlim_t spool_header_bytes(const std::string& tag) {
  const std::string dir = scratch(tag + "_header");
  run_hunt(tiny(dir));
  std::ifstream in(dir + "/spool.tsv");
  std::string header;
  std::getline(in, header);
  fs::remove_all(dir);
  return static_cast<rlim_t>(header.size() + 1);
}

// A capped file size lets the spool header land and fails what follows
// it, which /dev/full cannot do: the first score append, and the
// rewrite a resume makes of a spool longer than its header.

TEST(Hunt, SpoolAppendFailureFailsNamingTheSpool) {
  const rlim_t limit = spool_header_bytes("spool_append") + 1;
  const std::string dir = scratch("spool_append");
  EXPECT_EXIT(hunt_with_file_size_limit(tiny(dir), limit),
              ::testing::ExitedWithCode(1),
              "cannot write '" + dir + "/spool.tsv'");
  fs::remove_all(dir);
}

TEST(Hunt, SpoolResumeRewriteFailureFailsNamingTheSpool) {
  const rlim_t limit = spool_header_bytes("spool_rewrite") + 1;
  const std::string dir = scratch("spool_rewrite");
  run_hunt(tiny(dir));  // a full spool to resume from
  auto again = tiny(dir);
  again.resume = true;
  EXPECT_EXIT(hunt_with_file_size_limit(again, limit),
              ::testing::ExitedWithCode(1),
              "cannot write '" + dir + "/spool.tsv'");
  fs::remove_all(dir);
}

// ---- emitted traces ---------------------------------------------------

TEST(Hunt, EmittedTraceReplaysAndRoundTripsAGridCell) {
  const std::string dir = scratch("trace");
  auto cfg = tiny(dir);
  const HuntResult result = run_hunt(cfg);
  ASSERT_FALSE(result.best.empty());
  const std::string& trace_path = result.best.front().trace_path;
  ASSERT_FALSE(trace_path.empty());

  // The trace replays bit-identically standalone (strict digests).
  const replay::Trace t = replay::load_trace_file(trace_path);
  const replay::ReplayResult r = replay::play_trace(t);
  EXPECT_TRUE(r.ok()) << r.failure();

  // Loaded back as a grid-cell scenario with the hunt's own base seed
  // and instance count, the cell reproduces the scored run's bytes.
  exp::ExperimentSpec spec;
  spec.name = "roundtrip";
  spec.families = {cfg.family};
  spec.sizes = {cfg.n};
  spec.healers = cfg.healers;
  spec.scenarios = {"trace:" + trace_path};
  spec.instances = cfg.instances;
  spec.seed = cfg.seed;
  spec.labels = "spec";
  const std::vector<exp::Cell> cells = spec.enumerate();
  ASSERT_EQ(cells.size(), 1u);
  const exp::CellResult cell = exp::run_cell(spec, cells[0]);

  const auto runs_slice = [](const std::string& group) {
    const auto at = group.find("\"runs\":[");
    const auto end = group.find("],\"summary\"");
    EXPECT_NE(at, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return group.substr(at, end - at);
  };
  // The leaderboard's first group is the rank-1 winner's.
  EXPECT_EQ(runs_slice(cell.group_json),
            runs_slice(result.leaderboard_json));
  fs::remove_all(dir);
}

// ---- baseline comparison ----------------------------------------------

TEST(Hunt, LevelBaselineMatchesTheAnalyticalConstruction) {
  const LevelBaseline base = level_attack_baseline(64, 2, 5);
  // n=64, m=2: largest complete 4-ary tree is depth 2 (21 nodes).
  EXPECT_EQ(base.depth, 2u);
  EXPECT_EQ(base.nodes, 21u);
  EXPECT_GT(base.fitness, 0.0);
  EXPECT_THROW(level_attack_baseline(4, 2, 5), std::invalid_argument);
}

TEST(Hunt, SearchMatchesLevelAttackBaseline) {
  // The acceptance bar: a modest hunt budget finds a schedule whose
  // degree-blowup fitness is at least the paper's hand-derived
  // LevelAttack construction at the same n.
  const LevelBaseline base = level_attack_baseline(64, 2, 5);
  HuntConfig cfg;
  cfg.family = "ba";
  cfg.n = 64;
  cfg.healers = {"capped:2"};
  cfg.instances = 1;
  cfg.seed = 5;
  cfg.budget = 120;
  cfg.strategy = "evolve:12";
  cfg.threads = 0;  // hardware pool: this is the slow test here
  const HuntResult result = run_hunt(cfg);
  ASSERT_FALSE(result.best.empty());
  EXPECT_GE(result.best.front().fitness, base.fitness)
      << "hunted " << result.best.front().genome.spec();
}

}  // namespace
}  // namespace dash::hunt
