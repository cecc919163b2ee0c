#include "hunt/genome.h"

#include <stdexcept>

#include "api/phase_grammar.h"
#include "attack/factory.h"
#include "util/text.h"

namespace dash::hunt {

namespace {

namespace grammar = api::grammar;

constexpr const char* kGrammar = "hunt move";

/// The genome grammar is strict where the scenario grammar is lax:
/// every move carries an explicit count, bounded by GenomeLimits.
grammar::CountSplit counted(const std::string& move,
                            const std::string& param) {
  const grammar::CountSplit cs = grammar::split_count(kGrammar, move, param);
  const auto max = genome_limits().max_count;
  if (!cs.has_count || cs.count > max) {
    throw std::invalid_argument(
        "hunt move '" + move + ":" + param +
        "' needs an explicit count x<1.." + std::to_string(max) + ">");
  }
  return cs;
}

std::size_t parse_ranged(const std::string& move, const std::string& what,
                         const std::string& s, std::size_t min,
                         std::size_t max) {
  const auto v = util::parse_spec_uint(move, s, max);
  if (v < min) {
    throw std::invalid_argument("hunt move '" + move + "' needs " + what +
                                " >= " + std::to_string(min) + ", got '" +
                                s + "'");
  }
  return static_cast<std::size_t>(v);
}

std::size_t parse_attach(const std::string& move, const std::string& s) {
  return parse_ranged(move, "an attach count", s, 1,
                      genome_limits().max_attach);
}

Move parse_strike_move(const std::string& param) {
  Move m;
  m.kind = Move::Kind::kStrike;
  const grammar::CountSplit cs = counted("strike", param);
  m.count = cs.count;
  if (cs.head.empty()) {
    grammar::fail(kGrammar, "strike:" + param,
                  "needs an attack (expected strike:<attack>xN)");
  }
  grammar::check_attack(kGrammar, "strike", cs.head);
  attack::make_attack(cs.head, 1);  // also validates the parameter
  m.attack = cs.head;
  return m;
}

Move parse_batch_move(const std::string& param) {
  const std::string token = "batch:" + param;
  Move m;
  m.kind = Move::Kind::kBatch;
  const grammar::CountSplit cs = counted("batch", param);
  m.count = cs.count;
  const auto parts = util::split(cs.head, ',');
  if (parts.size() != 2) {
    grammar::fail(kGrammar, token, "expected batch:<k>,<hubs|random>xN");
  }
  m.batch_size = parse_ranged("batch", "a batch size", parts[0], 1,
                              genome_limits().max_batch);
  if (parts[1] != "hubs" && parts[1] != "random") {
    grammar::fail(kGrammar, token,
                  "unknown batch mode '" + parts[1] +
                      "' (expected hubs or random)");
  }
  m.batch_mode = parts[1];
  return m;
}

constexpr const char* kChurnUsage = "churn:<jr>,<lr>[,<attach>]xN";
constexpr const char* kRampUsage =
    "ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN";

/// churn (2 rates) or ramp (4 rates), then an optional attach count.
Move parse_ticks_move(bool ramp, const std::string& param) {
  const std::string move = ramp ? "ramp" : "churn";
  const std::string usage = ramp ? kRampUsage : kChurnUsage;
  const std::size_t rates = ramp ? 4 : 2;
  Move m;
  m.kind = ramp ? Move::Kind::kRamp : Move::Kind::kChurn;
  const grammar::CountSplit cs = counted(move, param);
  m.count = cs.count;
  const auto parts = util::split(cs.head, ',');
  if (parts.size() < rates || parts.size() > rates + 1) {
    grammar::fail(kGrammar, move + ":" + param, "expected " + usage);
  }
  double* const fields[] = {&m.join_rate, &m.leave_rate, &m.join_rate_end,
                            &m.leave_rate_end};
  for (std::size_t i = 0; i < rates; ++i) {
    *fields[i] = grammar::parse_rate(kGrammar, move, parts[i]);
  }
  if (parts.size() > rates) m.attach = parse_attach(move, parts[rates]);
  return m;
}

Move parse_churn_move(const std::string& param) {
  return parse_ticks_move(false, param);
}

Move parse_ramp_move(const std::string& param) {
  return parse_ticks_move(true, param);
}

Move parse_join_move(const std::string& param) {
  Move m;
  m.kind = Move::Kind::kJoin;
  const grammar::CountSplit cs = counted("join", param);
  m.count = cs.count;
  if (cs.head.empty()) {
    grammar::fail(kGrammar, "join:" + param, "expected join:<attach>xN");
  }
  m.attach = parse_attach("join", cs.head);
  return m;
}

Move parse_mix_move(const std::string& param) {
  const std::string token = "mix:" + param;
  Move m;
  m.kind = Move::Kind::kMix;
  const grammar::CountSplit cs = counted("mix", param);
  m.count = cs.count;
  const auto arms = grammar::split_mix_arms(kGrammar, token, cs.head,
                                            genome_limits().max_weight);
  if (arms.size() > 4) {
    grammar::fail(kGrammar, token, "expected 1..4 arms <w>{<move>}");
  }
  for (const auto& [weight, body] : arms) {
    const Move inner = parse_move(body);
    if (inner.kind == Move::Kind::kMix) {
      grammar::fail(kGrammar, token,
                    "mix arms must be single non-mix moves");
    }
    m.mix_arms.emplace_back(weight, inner.spec());
  }
  return m;
}

/// A registry factory over a move parser.
template <Move (*Parse)(const std::string&)>
std::unique_ptr<Move> boxed(const std::string& param) {
  return std::make_unique<Move>(Parse(param));
}

}  // namespace

const GenomeLimits& genome_limits() {
  static const GenomeLimits limits;
  return limits;
}

std::string Move::spec() const {
  switch (kind) {
    case Kind::kStrike:
      return grammar::strike_spec(attack, count);
    case Kind::kBatch:
      return grammar::batch_spec(batch_size, batch_mode, count);
    case Kind::kChurn:
      return grammar::churn_spec(join_rate, leave_rate, attach, count);
    case Kind::kJoin:
      return grammar::join_spec(attach, count);
    case Kind::kRamp:
      return grammar::ramp_spec(join_rate, leave_rate, join_rate_end,
                                leave_rate_end, attach, count);
    case Kind::kMix:
      return grammar::mix_spec(mix_arms, count);
  }
  return "";
}

util::Registry<Move>& move_registry() {
  // Lazy built-in registration (static-library linker-drop caveat; see
  // util/registry.h).
  static util::Registry<Move>* registry = [] {
    auto* r = new util::Registry<Move>(kGrammar);
    r->add("strike", boxed<parse_strike_move>, {}, "strike:<attack>xN");
    r->add("batch", boxed<parse_batch_move>, {}, "batch:<k>,<hubs|random>xN");
    r->add("churn", boxed<parse_churn_move>, {}, kChurnUsage);
    r->add("join", boxed<parse_join_move>, {}, "join:<attach>xN");
    r->add("ramp", boxed<parse_ramp_move>, {}, kRampUsage);
    r->add("mix", boxed<parse_mix_move>, {}, "mix:<w>{<move>},<w>{<move>}xN");
    return r;
  }();
  return *registry;
}

Move parse_move(const std::string& spec) {
  return *move_registry().create(spec);
}

AttackGenome AttackGenome::parse(const std::string& spec) {
  std::vector<Move> moves;
  for (const std::string& token :
       grammar::phase_tokens(spec, "hunt genome spec")) {
    moves.push_back(parse_move(token));
  }
  if (moves.size() > genome_limits().max_moves) {
    throw std::invalid_argument(
        "hunt genome has " + std::to_string(moves.size()) +
        " moves (limit " + std::to_string(genome_limits().max_moves) +
        "): '" + spec + "'");
  }
  return AttackGenome(std::move(moves));
}

std::string AttackGenome::spec() const {
  std::string out;
  for (const Move& m : moves_) {
    if (!out.empty()) out += ';';
    out += m.spec();
  }
  return out;
}

std::uint64_t AttackGenome::hash() const {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : spec()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string AttackGenome::hash_hex() const {
  static const char* hex = "0123456789abcdef";
  std::uint64_t h = hash();
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xF];
    h >>= 4;
  }
  return out;
}

api::Scenario AttackGenome::to_scenario() const {
  return api::Scenario::parse(spec());
}

}  // namespace dash::hunt
