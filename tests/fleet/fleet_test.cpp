// End-to-end tests of the fleet coordinator/agent pair: a grid served
// to live agents over real sockets must merge to the byte-exact
// document (and rows CSV) a sequential exp::run produces -- through
// handshake rejections, silent agents whose leases expire, duplicate
// results, checkpoint/resume, an agent SIGKILLed mid-cell, agents left
// in the accept backlog, a coordinator that hangs up right after its
// SHUTDOWN, and a spool that stops taking writes.
#include "fleet/coordinator.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/chaos.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "fleet/agent.h"
#include "fleet/channel.h"
#include "fleet/protocol.h"

namespace dash::fleet {
namespace {

exp::ExperimentSpec fleet_spec() {
  return exp::ExperimentSpec::parse_line(
      "name=fleet n=16|24 healer=dash|graph scenario=until-half "
      "instances=2 seed=11");
}

struct Sequential {
  std::string document;
  std::string rows;
};

/// The ground truth: the whole grid run sequentially in-process.
Sequential sequential_run(const exp::ExperimentSpec& spec) {
  exp::RunnerOptions opt;
  opt.threads = 1;
  std::vector<exp::ShardRecord> records;
  std::vector<exp::RowsRecord> rows;
  opt.on_cell = [&](const exp::CellResult& result) {
    records.push_back(exp::to_record(spec, result));
  };
  opt.on_rows = [&](const exp::Cell& cell,
                    const std::vector<api::RoundRow>& cell_rows) {
    for (const api::RoundRow& row : cell_rows) {
      exp::RowsRecord rec;
      ASSERT_TRUE(exp::parse_rows_line(exp::rows_line(cell.index, row), &rec));
      rows.push_back(rec);
    }
  };
  exp::run(spec, opt);
  Sequential out;
  out.document = exp::merged_document(spec, records);
  out.rows = exp::merged_rows(std::move(rows));
  return out;
}

/// Fresh per-test state dir under the gtest temp root.
std::string fresh_state_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "fleet_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

void quiet(const std::string&) {}

/// A worker thread running one real agent; coordinator-vanished errors
/// (expected around checkpoints) are swallowed.
std::thread agent_thread(const exp::ExperimentSpec& spec,
                         const std::string& endpoint,
                         const std::string& name) {
  return std::thread([&spec, endpoint, name] {
    AgentOptions opt;
    opt.connect = endpoint;
    opt.name = name;
    opt.progress = quiet;
    try {
      run_agent(spec, opt);
    } catch (const std::exception&) {
    }
  });
}

TEST(Fleet, ThreeAgentsMergeByteIdenticalToSequentialRun) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("identity");
  copt.rows = true;
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  const std::string ep = coord.endpoint().spec();

  std::vector<std::thread> agents;
  for (int i = 0; i < 3; ++i) {
    agents.push_back(agent_thread(spec, ep, "worker-" + std::to_string(i)));
  }
  const FleetReport report = coord.run();
  for (std::thread& t : agents) t.join();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.cells, spec.enumerate().size());
  EXPECT_EQ(report.done, report.cells);
  EXPECT_EQ(report.reassigned, 0u);
  EXPECT_EQ(report.document, expected.document);
  EXPECT_EQ(report.rows_csv, expected.rows);
  std::size_t committed = 0;
  for (const AgentStats& a : report.agents) committed += a.done;
  EXPECT_EQ(committed, report.cells);

  // The spool doubles as the resume manifest: every cell's record is
  // on disk and merges to the same bytes.
  const auto spooled =
      exp::load_shard_file(Coordinator::records_path(copt.state_dir));
  EXPECT_EQ(exp::merged_document(spec, spooled), expected.document);
}

TEST(Fleet, RejectsForeignVersionAndForeignSpecHash) {
  const auto spec = fleet_spec();
  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("handshake");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  {
    Channel ch = connect_channel(coord.endpoint());
    Message hello = make_hello(spec.hash(), "time-traveller");
    hello.version = kProtocolVersion + 41;
    ASSERT_TRUE(ch.send(hello));
    const auto reply = ch.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MessageType::kError);
    EXPECT_EQ(reply->code, "version-mismatch");
    EXPECT_FALSE(ch.recv().has_value());  // coordinator hung up
  }
  {
    Channel ch = connect_channel(coord.endpoint());
    ASSERT_TRUE(ch.send(make_hello("00000000deadbeef", "wrong-spec")));
    const auto reply = ch.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MessageType::kError);
    EXPECT_EQ(reply->code, "spec-mismatch");
    EXPECT_FALSE(ch.recv().has_value());
  }
  // run_agent surfaces the rejection as a FrameError naming the code.
  {
    const auto other = exp::ExperimentSpec::parse_line(
        "name=other n=16 healer=dash scenario=until-half instances=1 "
        "seed=1");
    AgentOptions aopt;
    aopt.connect = coord.endpoint().spec();
    aopt.progress = quiet;
    try {
      run_agent(other, aopt);
      FAIL() << "expected FrameError";
    } catch (const FrameError& e) {
      EXPECT_NE(std::string(e.what()).find("spec-mismatch"),
                std::string::npos);
    }
  }

  std::thread worker = agent_thread(spec, coord.endpoint().spec(), "honest");
  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);
}

TEST(Fleet, SilentAgentLeaseExpiresAndCellIsReassigned) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("lease");
  copt.rows = true;
  copt.lease_ms = 200;  // reap quickly; heartbeats go every 50ms
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  // A hostile agent: says hello, claims a cell, then goes silent.
  Channel silent = connect_channel(coord.endpoint());
  ASSERT_TRUE(silent.send(make_hello(spec.hash(), "silent")));
  auto welcome = silent.recv();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, MessageType::kWelcome);
  EXPECT_EQ(welcome->cells, spec.enumerate().size());
  EXPECT_TRUE(welcome->rows);
  ASSERT_TRUE(silent.send(make_claim()));
  auto grant = silent.recv();
  ASSERT_TRUE(grant.has_value());
  ASSERT_EQ(grant->type, MessageType::kGrant);
  const std::size_t hostage = grant->cell;

  // Only now let a real agent in: the hostage cell must come back to
  // it when the silent lease expires.
  std::thread worker = agent_thread(spec, coord.endpoint().spec(), "real");
  const auto reaped = silent.recv();  // the lease-expired ERROR
  ASSERT_TRUE(reaped.has_value());
  EXPECT_EQ(reaped->type, MessageType::kError);
  EXPECT_NE(reaped->message.find("lease expired"), std::string::npos);

  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.reassigned, 1u);
  EXPECT_EQ(report.document, expected.document);
  EXPECT_EQ(report.rows_csv, expected.rows);
  for (const AgentStats& a : report.agents) {
    if (a.name == "silent") {
      EXPECT_EQ(a.done, 0u);
      EXPECT_GE(a.forfeited, 1u);
    }
    if (a.name == "real") {
      EXPECT_EQ(a.done, report.cells);
    }
  }
  (void)hostage;
}

TEST(Fleet, DuplicateIdenticalResultIsCountedAndIgnored) {
  // 2-cell grid, driven entirely by a raw protocol-level client.
  const auto spec = exp::ExperimentSpec::parse_line(
      "name=dup n=16 healer=dash|graph scenario=until-half instances=1 "
      "seed=5");
  const std::vector<exp::Cell> cells = spec.enumerate();
  ASSERT_EQ(cells.size(), 2u);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("dup");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  Channel ch = connect_channel(coord.endpoint());
  ASSERT_TRUE(ch.send(make_hello(spec.hash(), "by-hand")));
  ASSERT_EQ(ch.recv()->type, MessageType::kWelcome);

  ASSERT_TRUE(ch.send(make_claim()));
  const auto grant = ch.recv();
  ASSERT_EQ(grant->type, MessageType::kGrant);
  const std::size_t first = grant->cell;
  const std::string line = exp::shard_line(
      exp::to_record(spec, exp::run_cell(spec, cells[first])));
  ASSERT_TRUE(ch.send(make_result(first, line)));
  // The same bytes again: a late duplicate, counted and ignored (the
  // grid is not yet complete, so this frame is always processed).
  ASSERT_TRUE(ch.send(make_result(first, line)));

  ASSERT_TRUE(ch.send(make_claim()));
  const auto second = ch.recv();
  ASSERT_EQ(second->type, MessageType::kGrant);
  const std::size_t other = second->cell;
  EXPECT_NE(other, first);
  ASSERT_TRUE(ch.send(make_result(
      other,
      exp::shard_line(exp::to_record(spec, exp::run_cell(spec, cells[other]))))));
  // The last commit completes the grid; the coordinator broadcasts
  // SHUTDOWN to every connection without waiting for another CLAIM.
  const auto bye = ch.recv();
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->type, MessageType::kShutdown);

  server.join();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.duplicates, 1u);
  EXPECT_EQ(report.document, sequential_run(spec).document);
}

TEST(Fleet, StatusIsServedWithoutHelloAndRendersCounts) {
  const auto spec = fleet_spec();
  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("status");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  // No agents yet, so the grid cannot complete under us: the status
  // round trip is race-free.
  {
    Channel ch = connect_channel(coord.endpoint());
    ASSERT_TRUE(ch.send(make_status()));
    const auto reply = ch.recv();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MessageType::kReport);
    EXPECT_NE(reply->text.find("0/4 cells done"), std::string::npos);
  }

  std::thread worker = agent_thread(spec, coord.endpoint().spec(), "w");
  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);

  const std::string rendered = render_status(report);
  EXPECT_NE(rendered.find("4/4 cells done"), std::string::npos);
  EXPECT_NE(rendered.find("w: 4 done"), std::string::npos);
}

TEST(Fleet, CheckpointThenResumeConvergesToSequentialBytes) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);
  const std::string dir = fresh_state_dir("resume");

  {
    CoordinatorOptions copt;
    copt.state_dir = dir;
    copt.rows = true;
    copt.stop_after = 2;  // checkpoint mid-grid
    copt.progress = quiet;
    Coordinator coord(spec, copt);
    FleetReport report;
    std::thread server([&] { report = coord.run(); });
    std::thread worker = agent_thread(spec, coord.endpoint().spec(), "w");
    server.join();
    worker.join();
    EXPECT_FALSE(report.complete);
    EXPECT_GE(report.done, 2u);
    EXPECT_LT(report.done, report.cells);
    EXPECT_TRUE(report.document.empty());
  }
  {
    CoordinatorOptions copt;
    copt.state_dir = dir;
    copt.rows = true;
    copt.resume = true;
    copt.progress = quiet;
    Coordinator coord(spec, copt);
    FleetReport report;
    std::thread server([&] { report = coord.run(); });
    std::thread worker = agent_thread(spec, coord.endpoint().spec(), "w");
    server.join();
    worker.join();
    EXPECT_TRUE(report.complete);
    EXPECT_GE(report.resumed, 2u);
    EXPECT_EQ(report.document, expected.document);
    EXPECT_EQ(report.rows_csv, expected.rows);
  }
}

TEST(Fleet, ResumeRejectsAManifestFromAnotherSpec) {
  const auto spec = fleet_spec();
  const std::string dir = fresh_state_dir("foreign");

  // Seed the state dir with a manifest stamped with a foreign hash.
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(Coordinator::records_path(dir));
    out << exp::shard_line({0, "00000000deadbeef", "{\"a\":1}"}) << "\n";
  }
  CoordinatorOptions copt;
  copt.state_dir = dir;
  copt.resume = true;
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  EXPECT_THROW(coord.run(), std::invalid_argument);
}

TEST(FleetDeathTest, AgentKilledMidCellIsReassignedByteIdentically) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("chaos");
  copt.rows = true;
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  const std::string ep = coord.endpoint().spec();
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  // A forked agent with chaos armed: it commits cell 0, then SIGKILLs
  // itself after streaming cell 1's rows but before its RESULT.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    AgentOptions aopt;
    aopt.connect = ep;
    aopt.name = "doomed";
    aopt.chaos = exp::parse_chaos("kill:1");
    aopt.progress = quiet;
    try {
      run_agent(spec, aopt);
    } catch (...) {
    }
    ::_exit(0);  // unreachable: the chaos strike must have fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // A live agent picks up the orphaned cell; the merge must not show a
  // seam -- same bytes as the sequential run, rows included.
  std::thread worker = agent_thread(spec, ep, "survivor");
  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.reassigned, 1u);
  EXPECT_EQ(report.document, expected.document);
  EXPECT_EQ(report.rows_csv, expected.rows);
}

TEST(Fleet, TornResultFrameCountsAsDeathNotCorruptState) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("torn");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  // A raw client that leaves half a RESULT frame behind and hangs up:
  // the mid-frame EOF a torn write produces. The coordinator must
  // treat it exactly like death -- reassign, never commit.
  {
    Channel ch = connect_channel(coord.endpoint());
    ASSERT_TRUE(ch.send(make_hello(spec.hash(), "torn")));
    ASSERT_EQ(ch.recv()->type, MessageType::kWelcome);
    ASSERT_TRUE(ch.send(make_claim()));
    const auto grant = ch.recv();
    ASSERT_EQ(grant->type, MessageType::kGrant);
    const std::string line = exp::shard_line(exp::to_record(
        spec, exp::run_cell(spec, spec.enumerate()[grant->cell])));
    const std::string framed =
        frame_bytes(encode_message(make_result(grant->cell, line)));
    ASSERT_TRUE(ch.send_raw(framed.substr(0, framed.size() / 2)));
  }  // channel closes here, mid-frame

  std::thread worker = agent_thread(spec, coord.endpoint().spec(), "w");
  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.reassigned, 1u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.document, expected.document);
}

TEST(Fleet, FinishedRunHangsUpOnAgentsStillInTheAcceptBacklog) {
  const auto spec = fleet_spec();
  const std::string dir = fresh_state_dir("backlog");

  // A complete manifest: resume finds nothing to do, so run() returns
  // without accepting a single connection.
  std::filesystem::create_directories(dir);
  {
    exp::RunnerOptions opt;
    opt.threads = 1;
    std::ofstream out(Coordinator::records_path(dir));
    for (const exp::CellResult& r : exp::run(spec, opt)) {
      out << exp::shard_line(exp::to_record(spec, r)) << "\n";
    }
  }
  CoordinatorOptions copt;
  copt.state_dir = dir;
  copt.resume = true;
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  Channel late = connect_channel(coord.endpoint());
  ASSERT_TRUE(late.send(make_hello(spec.hash(), "late")));
  const FleetReport report = coord.run();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.resumed, report.cells);

  // The coordinator object is still alive but no longer serving: the
  // unaccepted agent must see its connection end instead of waiting
  // for a WELCOME forever (a local agent `serve` then could not reap).
  pollfd pfd{late.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 10000), 1);
  EXPECT_FALSE(late.recv().has_value());
}

TEST(Fleet, AgentReadsAShutdownQueuedBeforeTheCoordinatorHungUp) {
  // A coordinator that finished sends SHUTDOWN and closes before the
  // agent's first claim: the claim send fails, yet the run ended
  // cleanly, so the agent must return the shutdown, not throw.
  const auto spec = fleet_spec();
  const std::string dir = fresh_state_dir("hangup");
  std::filesystem::create_directories(dir);
  Listener listener(Endpoint::parse("unix:" + dir + "/coordinator.sock"));
  std::promise<void> hung_up;
  std::thread coordinator([&] {
    // Release the agent however this side ends (after `ch` closes).
    struct Release {
      std::promise<void>& done;
      ~Release() { done.set_value(); }
    } release{hung_up};
    pollfd pfd{listener.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10000), 1);
    Channel ch = listener.accept();
    const auto hello = ch.recv();
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->type, MessageType::kHello);
    EXPECT_TRUE(ch.send(make_welcome(spec.enumerate().size(),
                                     /*heartbeat_ms=*/60000, false)));
    EXPECT_TRUE(ch.send(make_shutdown("run complete")));
    ch.close();
  });

  AgentOptions opt;
  opt.connect = listener.endpoint().spec();
  opt.name = "late";
  // The "joined" line comes after WELCOME and before the first claim:
  // hold the agent there until the coordinator has hung up.
  std::shared_future<void> closed = hung_up.get_future().share();
  opt.progress = [closed](const std::string&) { closed.wait(); };
  AgentReport report;
  EXPECT_NO_THROW(report = run_agent(spec, opt));
  coordinator.join();
  EXPECT_EQ(report.shutdown_reason, "run complete");
  EXPECT_EQ(report.cells_done, 0u);
}

TEST(Fleet, SpoolWriteFailureFailsTheServeNamingTheSpool) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto spec = fleet_spec();
  const std::string dir = fresh_state_dir("full");
  std::filesystem::create_directories(dir);
  const std::string spool = Coordinator::records_path(dir);
  std::filesystem::create_symlink("/dev/full", spool);

  // Every write to the manifest fails with ENOSPC: the first commit
  // must fail the serve instead of finishing with a manifest that a
  // --resume would find empty.
  CoordinatorOptions copt;
  copt.state_dir = dir;
  copt.progress = quiet;
  std::string error;
  std::thread worker;
  {
    Coordinator coord(spec, copt);
    worker = agent_thread(spec, coord.endpoint().spec(), "w");
    try {
      coord.run();
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
  }  // closing the coordinator hangs up on the agent
  worker.join();
  EXPECT_NE(error.find(spool), std::string::npos) << "error: " << error;
}

}  // namespace
}  // namespace dash::fleet
