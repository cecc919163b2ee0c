// phase_grammar.h -- the one home of the scenario phase text format.
//
// A scenario spec is a ';'-separated list of phase tokens, each
// `name[:args][xN]` (the phase alphabet is documented in
// api/scenario.h). Two layers read and write that text: api::Scenario,
// and hunt::AttackGenome, whose move grammar is a strict subset checked
// on these same tokens. Both tokenize and print through this header,
// so a genome spec is scenario-canonical by construction and the format
// has one place to change -- and one to fuzz.
//
// A `grammar` argument names the reading layer in error messages
// ("scenario phase", "hunt move"), so a rejected token is reported in
// the words of the grammar that rejected it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace dash::api::grammar {

/// Non-empty and ASCII digits only.
bool all_digits(const std::string& s);

/// Throws std::invalid_argument("bad <grammar> '<token>': <why>").
[[noreturn]] void fail(const std::string& grammar, const std::string& token,
                       const std::string& why);

/// A phase list's whitespace-trimmed tokens, split at top-level ';'
/// (braces nest, so a nested phase list stays in its token). Throws
/// std::invalid_argument naming `what` ("scenario spec") for an empty
/// token or an unbalanced brace.
std::vector<std::string> phase_tokens(const std::string& spec,
                                      const std::string& what);

/// A phase's args split at the trailing `x<digits>` count:
/// "0.3,0.1x500" -> {"0.3,0.1", 500}. A trailing x with a non-numeric
/// suffix (as in "neighborofmax") stays in the head.
struct CountSplit {
  std::string head;
  std::size_t count = 0;
  bool has_count = false;
};

/// Throws for an explicit zero count: a phase that does nothing is a
/// spec typo in every grammar.
CountSplit split_count(const std::string& grammar, const std::string& phase,
                       const std::string& args);

/// Strict double in [0, 1] (churn rates, untilfrac fractions) via
/// std::from_chars, not std::stod: specs must parse the same under
/// every process locale (stod honours LC_NUMERIC, so "0.3" fails and
/// "0,3" parses under a comma-decimal locale).
double parse_rate(const std::string& grammar, const std::string& phase,
                  const std::string& s);

/// Attack specs resolve through attack::attack_registry() when a phase
/// executes; this rejects an unknown attack name already where the spec
/// was written, listing the registered ones.
void check_attack(const std::string& grammar, const std::string& phase,
                  const std::string& attack);

/// `<digits>{<body>}`, the repeat parameter and the mix arm shape.
/// False when `s` has another shape.
bool split_braced(const std::string& s, std::string* digits,
                  std::string* body);

/// A mix arm as text: weight and nested phase list.
using MixArmText = std::pair<std::uint64_t, std::string>;

/// The arms of a mix head ("2{strike},1{join}"): each must be
/// `<weight>{<phases>}` with 1 <= weight <= max_weight. `token` is the
/// whole phase text, for error messages.
std::vector<MixArmText> split_mix_arms(
    const std::string& grammar, const std::string& token,
    const std::string& head,
    std::uint64_t max_weight = std::numeric_limits<unsigned long>::max());

// ---- canonical printers, one per phase shape ---------------------------
//
// These strings are stored by replay traces, hunt spools and
// leaderboards: a printer change is a format change. Rates print in
// their minimal round-trip-safe decimal form ("0.3", "1").

std::string strike_spec(const std::string& attack, std::size_t count);
/// max_deletions == 0 (unlimited) prints no count.
std::string targeted_spec(const std::string& attack,
                          std::size_t max_deletions);
std::string until_spec(std::size_t n, const std::string& attack);
std::string untilfrac_spec(double frac, const std::string& attack);
/// rounds == 0 (while a batch fits) prints no count.
std::string batch_spec(std::size_t size, const std::string& mode,
                       std::size_t rounds);
/// The default attach (2) is elided.
std::string churn_spec(double join_rate, double leave_rate,
                       std::size_t attach, std::size_t events);
std::string ramp_spec(double join_start, double leave_start,
                      double join_end, double leave_end, std::size_t attach,
                      std::size_t events);
std::string join_spec(std::size_t attach, std::size_t count);
std::string mix_spec(const std::vector<MixArmText>& arms, std::size_t draws);
std::string repeat_spec(std::size_t times, const std::string& body);
std::string floor_spec(std::size_t min_alive);

}  // namespace dash::api::grammar
