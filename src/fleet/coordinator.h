// coordinator.h -- the `dash_lab serve` side of the fleet: owns the
// cell queue of one ExperimentSpec and leases cells to agents over the
// protocol in protocol.h, work-stealing style -- an agent claims one
// cell at a time, so fast agents naturally take more of the grid and a
// straggler never holds more than one cell hostage.
//
// Fault model. Every lease has a deadline refreshed by any frame from
// the owning agent (heartbeats while a cell computes, ROWS/RESULT when
// it finishes). An agent that dies (socket EOF, possibly mid-frame
// after a torn write) or goes silent past the deadline forfeits its
// lease: the cell goes back to the front of the queue, its staged rows
// are dropped, and the next CLAIM -- from any agent -- picks it up.
// Because every cell is deterministic, a reassigned cell reproduces the
// exact bytes the dead agent would have sent, so the merged document is
// byte-identical to a sequential run no matter how many agents died.
//
// Durability. Committed results are spooled to <state_dir>/records.jsonl
// (exp::shard_line format) and <state_dir>/rows.csv (exp::rows file
// format), flushed per cell -- the same files double as the resume
// manifest: `serve --resume` reloads them, skips finished cells, and
// carries on, surviving its own restart exactly like `dash_lab run
// --resume` does.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/spec.h"
#include "fleet/channel.h"

namespace dash::fleet {

struct CoordinatorOptions {
  /// Where to listen. unix:<state_dir>/fleet.sock when left empty.
  std::string listen;
  /// Spool + resume-manifest directory (created if absent).
  std::string state_dir = "dash_fleet";
  /// Reload the spool manifest and skip already-finished cells.
  bool resume = false;
  /// Collect per-round rows (agents are told to stream ROWS frames).
  bool rows = false;
  /// Lease deadline: an agent silent this long forfeits its cell.
  std::size_t lease_ms = 10000;
  /// Test hook: stop (checkpointing, not completing) after this many
  /// newly committed cells. 0 = run to completion.
  std::size_t stop_after = 0;
  /// Progress sink (one line per event); default logs via DASH_LOG.
  /// Set to a no-op to silence.
  std::function<void(const std::string&)> progress;
};

/// Per-agent tallies for the final report.
struct AgentStats {
  std::string name;
  std::size_t done = 0;        ///< cells this agent committed
  std::size_t forfeited = 0;   ///< leases taken back (death/timeout)
  bool connected = false;
};

struct FleetReport {
  bool complete = false;       ///< whole grid committed (vs stop_after)
  std::size_t cells = 0;       ///< grid size
  std::size_t done = 0;        ///< committed overall (incl. resumed)
  std::size_t running = 0;     ///< leased right now (status snapshots)
  std::size_t resumed = 0;     ///< cells loaded from the manifest
  std::size_t reassigned = 0;  ///< leases forfeited and requeued
  std::size_t duplicates = 0;  ///< late identical results ignored
  std::vector<AgentStats> agents;
  /// When complete: the merged BENCH_*.json document (byte-identical
  /// to a sequential exp::run) and, with rows, the canonical rows CSV.
  std::string document;
  std::string rows_csv;
};

/// The serve loop. Construct (binds the listener immediately, so
/// agents spawned right after can connect), then run() until the grid
/// completes or stop_after fires.
class Coordinator {
 public:
  Coordinator(exp::ExperimentSpec spec, CoordinatorOptions opt);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound endpoint (ephemeral tcp port resolved).
  const Endpoint& endpoint() const;

  /// Serve until every cell is committed (returns a complete report
  /// with the merged document) or stop_after newly committed cells
  /// (returns complete == false; the spool holds the checkpoint).
  /// On return or throw, every agent connection -- accepted or still
  /// in the backlog -- is closed and the listener with it.
  /// Throws std::runtime_error on listener failure or a spool write
  /// that did not land (naming the spool), and std::invalid_argument
  /// on spec/manifest problems.
  FleetReport run();

  /// Spool paths inside a state dir (shared with the CLI and tests).
  static std::string records_path(const std::string& state_dir);
  static std::string rows_path(const std::string& state_dir);

 private:
  struct Impl;
  Impl* impl_;
};

/// A human-readable progress snapshot, served to STATUS clients and
/// printed by `dash_lab status`.
std::string render_status(const FleetReport& report);

}  // namespace dash::fleet
