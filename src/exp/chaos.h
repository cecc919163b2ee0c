// chaos.h -- crash-fault injection for grid runs.
//
// The resilience story of the exp layer (per-cell shard records as
// resume manifests, truncated-final-line tolerance, byte-stable
// merges) is only trustworthy if runs actually die mid-sweep in tests.
// A chaos plan, passed as `--chaos` to `dash_lab run` (or to a fleet
// agent), makes the process abort deterministically at a chosen cell:
//
//   kill:<cell>   SIGKILL before the cell's record is written (rows
//                 for the cell may already be on disk -- resume
//                 recomputes them);
//   torn:<cell>   flush half the record line, no newline, then
//                 SIGKILL -- the torn-write shape the shard loader's
//                 recovery path must eat.
//
// The strike happens at most once per process (the targeted cell), so
// a --resume rerun without --chaos finishes the sweep.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace dash::exp {

struct ChaosPlan {
  enum class Kind { kNone, kKill, kTorn };
  Kind kind = Kind::kNone;
  std::size_t cell = 0;  ///< the cell index whose record write aborts
  bool armed() const { return kind != Kind::kNone; }
};

/// Parse "kill:<cell>" / "torn:<cell>" (empty -> unarmed plan).
/// Throws std::invalid_argument on anything else.
ChaosPlan parse_chaos(const std::string& spec);

/// Abort the process if `plan` targets `cell`: kKill dies before any
/// byte of `record_line` reaches `out`; kTorn writes the first half of
/// `record_line` (no newline), flushes, then dies. Returns normally
/// when the plan does not apply. `record_line` is the line *without*
/// its trailing newline.
void chaos_strike(const ChaosPlan& plan, std::size_t cell,
                  std::ostream& out, const std::string& record_line);

}  // namespace dash::exp
