// genome.h -- the hunt candidate representation: an attack schedule as
// a typed move sequence.
//
// An AttackGenome is the unit the search strategies (hunt/strategy.h)
// breed and score. Each move is one of the scenario alphabet's attack
// shapes -- a targeted strike (by rank, degree, or observer-conditioned
// predicate via the attack registry), a batch strike, a churn burst, a
// join burst, a churn ramp, or a weighted mix of single moves -- and
// the genome's canonical text form *is* a scenario spec:
//
//   hunt::AttackGenome g = hunt::AttackGenome::parse(
//       "strike:maxdeltax12;churn:0.3,0.1x50;batch:8,hubsx3");
//   g.spec();          // the same string (canonical fixed point)
//   g.to_scenario();   // an api::Scenario ready for Network::play
//
// Moves parse through a util::Registry keyed by the move name, and an
// unknown move's error lists the registered alphabet. There is one
// tokenizer and one printer: a genome splits, counts, reads rates and
// prints through the scenario layer's api/phase_grammar.h, so a genome
// spec is scenario-canonical by construction. The genome's strictness
// is checked on those shared tokens: every move must carry an explicit
// count, parameter ranges are clamped by GenomeLimits (evaluation cost
// stays bounded no matter what the mutator breeds), mix arms are
// single non-mix moves, and open-ended phases (targeted, until,
// repeat, trace) are not part of the alphabet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario.h"
#include "util/registry.h"

namespace dash::hunt {

/// Hard caps the strict parser and the mutation kit both honour; they
/// bound the cost of evaluating any genome the search can express.
struct GenomeLimits {
  std::size_t max_moves = 12;    ///< moves per genome
  std::size_t max_count = 2000;  ///< events/deletions/draws per move
  std::size_t max_batch = 64;    ///< batch size
  std::size_t max_attach = 8;    ///< join attachments
  std::uint64_t max_weight = 9;  ///< mix arm weight
};

const GenomeLimits& genome_limits();

/// One typed move. Which fields are live depends on `kind`; spec()
/// renders the canonical phase text with the scenario layer's printer
/// for that phase shape.
struct Move {
  enum class Kind { kStrike, kBatch, kChurn, kJoin, kRamp, kMix };

  Kind kind = Kind::kStrike;
  /// kStrike: attack registry spec ("maxnode", "rank:3", "adaptive").
  std::string attack = "maxnode";
  /// Repetitions: strike deletions, batch rounds, churn/ramp events,
  /// join arrivals, mix draws. Always >= 1.
  std::size_t count = 1;
  // kBatch:
  std::size_t batch_size = 4;
  std::string batch_mode = "hubs";  ///< "hubs" or "random"
  // kChurn rates; kRamp start rates.
  double join_rate = 0.0;
  double leave_rate = 0.0;
  // kRamp end rates.
  double join_rate_end = 0.0;
  double leave_rate_end = 0.0;
  /// kChurn / kJoin / kRamp: peers each arrival wires to.
  std::size_t attach = 2;
  /// kMix: (weight, canonical single-move spec) arms; arms are
  /// non-mix moves, so nesting stops at depth one.
  std::vector<std::pair<std::uint64_t, std::string>> mix_arms;

  std::string spec() const;
  bool operator==(const Move&) const = default;
};

/// The registry serving move-name lookups for AttackGenome::parse:
/// strike, batch, churn, join, ramp, mix (strict forms; every entry
/// requires an explicit count). Downstream code may register more.
util::Registry<Move>& move_registry();

/// Parse one move token through move_registry(); throws
/// std::invalid_argument with the full alphabet on unknown names.
Move parse_move(const std::string& spec);

class AttackGenome {
 public:
  AttackGenome() = default;
  explicit AttackGenome(std::vector<Move> moves)
      : moves_(std::move(moves)) {}

  /// Strict parse of a ';'-joined move list. Throws
  /// std::invalid_argument for empty specs, unknown moves, missing
  /// counts, out-of-range parameters, or more than
  /// genome_limits().max_moves moves.
  static AttackGenome parse(const std::string& spec);

  /// Canonical text form; parse(spec()) round-trips, and the string is
  /// a valid canonical api::Scenario spec.
  std::string spec() const;

  /// FNV-1a over spec(): the candidate's identity in caches, spools,
  /// and leaderboards.
  std::uint64_t hash() const;
  std::string hash_hex() const;

  /// The executable form (Scenario::parse of spec()).
  api::Scenario to_scenario() const;

  std::vector<Move>& moves() { return moves_; }
  const std::vector<Move>& moves() const { return moves_; }
  bool empty() const { return moves_.empty(); }
  std::size_t size() const { return moves_.size(); }
  bool operator==(const AttackGenome&) const = default;

 private:
  std::vector<Move> moves_;
};

}  // namespace dash::hunt
