#include "api/scenario.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "api/network.h"
#include "api/phase_grammar.h"
#include "attack/factory.h"
#include "graph/metrics.h"
#include "util/check.h"
#include "util/text.h"

// Defined in replay/trace_phase.cpp; see the registry builder below.
namespace dash::replay::detail {
void register_trace_phase(dash::util::Registry<dash::api::ScenarioPhase>* r);
}  // namespace dash::replay::detail

namespace dash::api {

namespace {

using graph::NodeId;

constexpr const char* kGrammar = "scenario phase";

/// Alive nodes in the hub order (degree desc, id asc): the batch
/// "hubs" pick.
std::vector<NodeId> hubs_first(const graph::Graph& g) {
  auto alive = g.alive_nodes();
  std::sort(alive.begin(), alive.end(), [&g](NodeId a, NodeId b) {
    return graph::hub_before(g, a, b);
  });
  return alive;
}

/// Uniform k-subset of the alive nodes via partial Fisher-Yates: k RNG
/// draws, not a full shuffle -- churn phases run for millions of
/// events. NOTE: the draw count is part of the deterministic stream
/// layout; changing it changes every seeded result.
std::vector<NodeId> pick_distinct_alive(const graph::Graph& g,
                                        dash::util::Rng& rng,
                                        std::size_t k) {
  auto alive = g.alive_nodes();
  const std::size_t take = std::min(k, alive.size());
  for (std::size_t i = 0; i < take; ++i) {
    const auto j =
        i + static_cast<std::size_t>(rng.below(alive.size() - i));
    std::swap(alive[i], alive[j]);
  }
  alive.resize(take);
  return alive;
}

/// Runs every phase of `body` once; false if the play's stop condition
/// fired first (the caller must return at once).
bool run_body(const Scenario& body, PlayContext& ctx) {
  for (const auto& phase : body.phases()) {
    if (ctx.stopped()) return false;
    phase->execute(ctx);
  }
  return true;
}

// ---- phases --------------------------------------------------------------

/// Select-and-delete with one attack until a bound: the strike,
/// targeted, until and untilfrac spellings. One loop serves all four --
/// the attack is built from the play's next seed, and every pick checks
/// the alive bound, then the stop condition -- and they differ only in
/// the bound: a deletion count (strike; targeted's optional cap), an
/// alive target (until) or a size-relative one (untilfrac). spec()
/// prints the spelling the phase was built from.
class AttackPhase final : public ScenarioPhase {
 public:
  enum class Spelling { kStrike, kTargeted, kUntil, kUntilFrac };

  /// `max_deletions` caps strike and targeted (0: no cap); `left` is
  /// until's alive target, `frac` untilfrac's fraction of the initial
  /// size.
  AttackPhase(Spelling spelling, std::string attack,
              std::size_t max_deletions, std::size_t left = 0,
              double frac = 0.0)
      : spelling_(spelling),
        attack_(std::move(attack)),
        max_deletions_(max_deletions),
        left_(left),
        frac_(frac) {
    switch (spelling_) {
      case Spelling::kStrike:
        DASH_CHECK_MSG(max_deletions_ > 0, "strike needs a positive count");
        break;
      case Spelling::kTargeted:
        break;
      case Spelling::kUntil:
        DASH_CHECK_MSG(left_ > 0, "until needs n >= 1");
        break;
      case Spelling::kUntilFrac:
        DASH_CHECK_MSG(frac_ > 0.0 && frac_ <= 1.0,
                       "untilfrac needs a fraction in (0, 1]");
        break;
    }
    grammar::check_attack(kGrammar, name(), attack_);
  }

  /// targeted with a caller-built adversary, labelled for spec() only.
  AttackPhase(AttackerFactory factory, const std::string& label,
              std::size_t max_deletions)
      : spelling_(Spelling::kTargeted),
        attack_("<" + label + ">"),
        factory_(std::move(factory)),
        max_deletions_(max_deletions) {}

  std::string spec() const override {
    switch (spelling_) {
      case Spelling::kStrike:
        return grammar::strike_spec(attack_, max_deletions_);
      case Spelling::kTargeted:
        return grammar::targeted_spec(attack_, max_deletions_);
      case Spelling::kUntil:
        return grammar::until_spec(left_, attack_);
      case Spelling::kUntilFrac:
        return grammar::untilfrac_spec(frac_, attack_);
    }
    return "";
  }

  void execute(PlayContext& ctx) const override {
    std::size_t left = left_;
    if (spelling_ == Spelling::kUntilFrac) {
      // Size-relative target: delete until at most ceil(initial * frac)
      // nodes survive. The initial size comes from the engine, so the
      // same phase value serves every n of a sweep grid ("delete half"
      // without baking n/2 into the spec).
      const double raw =
          std::ceil(static_cast<double>(ctx.net.initial_size()) * frac_);
      left = std::max<std::size_t>(1, static_cast<std::size_t>(raw));
    }
    auto atk = factory_ ? factory_(ctx.rng.next_u64())
                        : attack::make_attack(attack_, ctx.rng.next_u64());
    for (std::size_t deleted = 0;
         max_deletions_ == 0 || deleted < max_deletions_; ++deleted) {
      if (ctx.net.graph().num_alive() <= std::max(left, ctx.floor) ||
          ctx.stopped()) {
        break;
      }
      const NodeId v = atk->select(ctx.net.graph(), ctx.net.state());
      if (v == graph::kInvalidNode) break;
      ctx.net.remove(v);
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<AttackPhase>(*this);
  }

 private:
  const char* name() const {
    switch (spelling_) {
      case Spelling::kStrike: return "strike";
      case Spelling::kTargeted: return "targeted";
      case Spelling::kUntil: return "until";
      case Spelling::kUntilFrac: return "untilfrac";
    }
    return "";
  }

  Spelling spelling_;
  std::string attack_;
  AttackerFactory factory_;
  std::size_t max_deletions_ = 0;
  std::size_t left_ = 0;
  double frac_ = 0.0;
};

class BatchStrikePhase final : public ScenarioPhase {
 public:
  BatchStrikePhase(std::size_t batch_size, std::string mode,
                   std::size_t rounds)
      : batch_size_(batch_size), mode_(std::move(mode)), rounds_(rounds) {
    DASH_CHECK_MSG(batch_size_ > 0, "batch needs a positive size");
    DASH_CHECK_MSG(mode_ == "hubs" || mode_ == "random",
                   "batch mode must be hubs or random");
  }

  std::string spec() const override {
    return grammar::batch_spec(batch_size_, mode_, rounds_);
  }

  void execute(PlayContext& ctx) const override {
    std::size_t done = 0;
    while (rounds_ == 0 || done < rounds_) {
      const auto& g = ctx.net.graph();
      // The whole batch must fit above the deletion floor (floor >= 1
      // also guarantees a survivor).
      if (g.num_alive() < batch_size_ + ctx.floor || ctx.stopped()) break;
      std::vector<NodeId> batch;
      if (mode_ == "hubs") {
        const auto ordered = hubs_first(g);
        batch.assign(ordered.begin(), ordered.begin() + batch_size_);
      } else {
        batch = pick_distinct_alive(g, ctx.rng, batch_size_);
      }
      ctx.net.remove_batch(batch);
      ++done;
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<BatchStrikePhase>(*this);
  }

 private:
  std::size_t batch_size_;
  std::string mode_;
  std::size_t rounds_;
};

/// Churn ticks, spelled `churn` (flat rates) or `ramp` (both rates move
/// linearly from the start to the end pair across the phase; the last
/// tick hits the end rates exactly). Churn is the ramp whose start and
/// end rates are equal, and consumes the identical RNG stream.
class ChurnPhase final : public ScenarioPhase {
 public:
  ChurnPhase(bool ramp, double join_start, double leave_start,
             double join_end, double leave_end, std::size_t events,
             std::size_t attach)
      : ramp_(ramp),
        join_start_(join_start),
        leave_start_(leave_start),
        join_end_(join_end),
        leave_end_(leave_end),
        events_(events),
        attach_(attach) {
    DASH_CHECK_MSG(events_ > 0, "churn needs a positive event count");
    DASH_CHECK_MSG(attach_ > 0, "churn joins need >= 1 attachment");
  }

  std::string spec() const override {
    if (!ramp_) {
      return grammar::churn_spec(join_start_, leave_start_, attach_,
                                 events_);
    }
    return grammar::ramp_spec(join_start_, leave_start_, join_end_,
                              leave_end_, attach_, events_);
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t e = 0; e < events_; ++e) {
      if (ctx.stopped()) break;
      const double t =
          events_ == 1 ? 0.0
                       : static_cast<double>(e) /
                             static_cast<double>(events_ - 1);
      // Both coins are flipped every tick (joins and leaves are
      // independent processes), keeping the stream layout fixed.
      const bool do_join =
          ctx.rng.chance(join_start_ + (join_end_ - join_start_) * t);
      const bool do_leave =
          ctx.rng.chance(leave_start_ + (leave_end_ - leave_start_) * t);
      if (do_join) {
        ctx.net.join(
            pick_distinct_alive(ctx.net.graph(), ctx.rng, attach_));
      }
      if (do_leave && ctx.net.graph().num_alive() > ctx.floor) {
        ctx.net.remove(graph::uniform_alive(ctx.net.graph(), ctx.rng));
      }
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<ChurnPhase>(*this);
  }

 private:
  bool ramp_;
  double join_start_;
  double leave_start_;
  double join_end_;
  double leave_end_;
  std::size_t events_;
  std::size_t attach_;
};

class JoinPhase final : public ScenarioPhase {
 public:
  JoinPhase(std::size_t attach, std::size_t count)
      : attach_(attach), count_(count) {
    DASH_CHECK_MSG(attach_ > 0, "join needs >= 1 attachment");
    DASH_CHECK_MSG(count_ > 0, "join needs a positive count");
  }

  std::string spec() const override {
    return grammar::join_spec(attach_, count_);
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t i = 0; i < count_; ++i) {
      if (ctx.stopped()) break;
      ctx.net.join(
          pick_distinct_alive(ctx.net.graph(), ctx.rng, attach_));
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<JoinPhase>(*this);
  }

 private:
  std::size_t attach_;
  std::size_t count_;
};

/// One weighted alternative of a mix phase.
struct MixArm {
  std::uint64_t weight = 1;
  Scenario body;
};

class MixPhase final : public ScenarioPhase {
 public:
  MixPhase(std::vector<MixArm> arms, std::size_t draws)
      : arms_(std::move(arms)), draws_(draws) {
    DASH_CHECK_MSG(!arms_.empty(), "mix needs at least one arm");
    DASH_CHECK_MSG(draws_ > 0, "mix needs a positive draw count");
    for (const MixArm& arm : arms_) {
      DASH_CHECK_MSG(arm.weight > 0, "mix weights must be >= 1");
      DASH_CHECK_MSG(!arm.body.empty(), "mix arm needs at least one phase");
      total_ += arm.weight;
    }
  }

  std::string spec() const override {
    std::vector<grammar::MixArmText> arms;
    arms.reserve(arms_.size());
    for (const MixArm& arm : arms_) {
      arms.emplace_back(arm.weight, arm.body.spec());
    }
    return grammar::mix_spec(arms, draws_);
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t d = 0; d < draws_; ++d) {
      if (ctx.stopped()) break;
      // One weighted draw per iteration, then the chosen arm's whole
      // phase list runs once.
      std::uint64_t r = ctx.rng.below(total_);
      for (const MixArm& arm : arms_) {
        if (r < arm.weight) {
          if (!run_body(arm.body, ctx)) return;
          break;
        }
        r -= arm.weight;
      }
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<MixPhase>(*this);
  }

 private:
  std::vector<MixArm> arms_;
  std::size_t draws_;
  std::uint64_t total_ = 0;
};

/// A nested phase list run `times` times. A named preset is the
/// one-time repeat of its registered body, and spec() round-trips
/// through the preset's name so grids and CLIs stay readable.
class RepeatPhase final : public ScenarioPhase {
 public:
  RepeatPhase(std::size_t times, Scenario body, std::string preset = "")
      : times_(times), body_(std::move(body)), preset_(std::move(preset)) {
    DASH_CHECK_MSG(times_ > 0, "repeat needs a positive multiplier");
  }

  std::string spec() const override {
    return preset_.empty() ? grammar::repeat_spec(times_, body_.spec())
                           : preset_;
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t t = 0; t < times_; ++t) {
      if (!run_body(body_, ctx)) return;
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<RepeatPhase>(*this);
  }

 private:
  std::size_t times_;
  Scenario body_;
  std::string preset_;
};

class FloorPhase final : public ScenarioPhase {
 public:
  explicit FloorPhase(std::size_t min_alive) : min_alive_(min_alive) {
    DASH_CHECK_MSG(min_alive_ > 0, "floor needs min_alive >= 1");
  }

  std::string spec() const override {
    return grammar::floor_spec(min_alive_);
  }

  void execute(PlayContext& ctx) const override { ctx.floor = min_alive_; }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<FloorPhase>(*this);
  }

 private:
  std::size_t min_alive_;
};

// ---- phase parsers (registry factories) ----------------------------------

using Spelling = AttackPhase::Spelling;

std::unique_ptr<ScenarioPhase> parse_strike(const std::string& param) {
  const grammar::CountSplit cs =
      grammar::split_count(kGrammar, "strike", param);
  std::string attack = cs.head.empty() ? "maxnode" : cs.head;
  std::size_t count = cs.has_count ? cs.count : 1;
  if (!cs.has_count && grammar::all_digits(cs.head)) {
    // "strike:40" == "strike x40".
    count = static_cast<std::size_t>(util::parse_spec_uint("strike", cs.head));
    if (count == 0) {
      throw std::invalid_argument("zero count in scenario phase 'strike:" +
                                  param + "'");
    }
    attack = "maxnode";
  }
  return std::make_unique<AttackPhase>(Spelling::kStrike, attack, count);
}

std::unique_ptr<ScenarioPhase> parse_targeted(const std::string& param) {
  const grammar::CountSplit cs =
      grammar::split_count(kGrammar, "targeted", param);
  return std::make_unique<AttackPhase>(
      Spelling::kTargeted, cs.head.empty() ? "maxnode" : cs.head,
      cs.has_count ? cs.count : 0);
}

std::unique_ptr<ScenarioPhase> parse_until(const std::string& param) {
  const std::string token = "until:" + param;
  const auto parts = util::split(param, ',');
  if (parts.size() > 2 || !grammar::all_digits(parts[0])) {
    grammar::fail(kGrammar, token, "expected until:<n>[,<attack>]");
  }
  const auto n = util::parse_spec_uint("until", parts[0]);
  if (n == 0) grammar::fail(kGrammar, token, "until needs n >= 1");
  return std::make_unique<AttackPhase>(
      Spelling::kUntil,
      parts.size() == 2 && !parts[1].empty() ? parts[1] : "maxnode", 0,
      static_cast<std::size_t>(n));
}

std::unique_ptr<ScenarioPhase> parse_untilfrac(const std::string& param) {
  const std::string token = "untilfrac:" + param;
  const auto parts = util::split(param, ',');
  if (parts.size() > 2 || parts[0].empty()) {
    grammar::fail(kGrammar, token, "expected untilfrac:<frac>[,<attack>]");
  }
  const double frac = grammar::parse_rate(kGrammar, "untilfrac", parts[0]);
  if (frac <= 0.0) {
    grammar::fail(kGrammar, token, "untilfrac needs a fraction in (0, 1]");
  }
  return std::make_unique<AttackPhase>(
      Spelling::kUntilFrac,
      parts.size() == 2 && !parts[1].empty() ? parts[1] : "maxnode", 0, 0,
      frac);
}

std::unique_ptr<ScenarioPhase> parse_batch(const std::string& param) {
  const std::string token = "batch:" + param;
  const grammar::CountSplit cs =
      grammar::split_count(kGrammar, "batch", param);
  const auto parts = util::split(cs.head, ',');
  if (parts.size() > 2 || parts[0].empty()) {
    grammar::fail(kGrammar, token, "expected batch:<k>[,hubs|random][xN]");
  }
  const auto k = util::parse_spec_uint("batch", parts[0]);
  if (k == 0) grammar::fail(kGrammar, token, "zero batch size");
  std::string mode = parts.size() == 2 ? parts[1] : "hubs";
  if (mode != "hubs" && mode != "random") {
    grammar::fail(kGrammar, token,
                  "unknown batch mode '" + mode +
                      "' (expected hubs or random)");
  }
  return std::make_unique<BatchStrikePhase>(
      static_cast<std::size_t>(k), std::move(mode),
      cs.has_count ? cs.count : 0);
}

/// A join's attach count: >= 1 peers per arrival.
std::size_t parse_attach(const std::string& phase, const std::string& token,
                         const std::string& text) {
  const auto attach = util::parse_spec_uint(phase, text);
  if (attach == 0) {
    grammar::fail(kGrammar, token, "attach count must be >= 1");
  }
  return static_cast<std::size_t>(attach);
}

constexpr const char* kChurnUsage =
    "churn:<join_rate>,<leave_rate>[,<attach>]xN";
constexpr const char* kRampUsage =
    "ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN";

/// churn (2 rates) or ramp (4 rates), then an optional attach count
/// and the mandatory event count.
std::unique_ptr<ScenarioPhase> parse_ticks(bool ramp,
                                           const std::string& param) {
  const std::string phase = ramp ? "ramp" : "churn";
  const std::string usage = ramp ? kRampUsage : kChurnUsage;
  const std::size_t rates = ramp ? 4 : 2;
  const std::string token = phase + ":" + param;
  const grammar::CountSplit cs = grammar::split_count(kGrammar, phase, param);
  if (!cs.has_count) {
    grammar::fail(kGrammar, token,
                  "needs an event count (expected " + usage + ")");
  }
  const auto parts = util::split(cs.head, ',');
  if (parts.size() < rates || parts.size() > rates + 1) {
    grammar::fail(kGrammar, token, "expected " + usage);
  }
  double r[4];
  for (std::size_t i = 0; i < rates; ++i) {
    r[i] = grammar::parse_rate(kGrammar, phase, parts[i]);
  }
  if (!ramp) {
    r[2] = r[0];
    r[3] = r[1];
  }
  const std::size_t attach =
      parts.size() > rates ? parse_attach(phase, token, parts[rates]) : 2;
  return std::make_unique<ChurnPhase>(ramp, r[0], r[1], r[2], r[3],
                                      cs.count, attach);
}

std::unique_ptr<ScenarioPhase> parse_churn(const std::string& param) {
  return parse_ticks(false, param);
}

std::unique_ptr<ScenarioPhase> parse_ramp(const std::string& param) {
  return parse_ticks(true, param);
}

std::unique_ptr<ScenarioPhase> parse_join(const std::string& param) {
  const grammar::CountSplit cs =
      grammar::split_count(kGrammar, "join", param);
  const std::size_t attach =
      cs.head.empty() ? 2 : parse_attach("join", "join:" + param, cs.head);
  return std::make_unique<JoinPhase>(attach, cs.has_count ? cs.count : 1);
}

std::unique_ptr<ScenarioPhase> parse_mix(const std::string& param) {
  const std::string token = "mix:" + param;
  const grammar::CountSplit cs = grammar::split_count(kGrammar, "mix", param);
  if (!cs.has_count) {
    grammar::fail(kGrammar, token,
                  "needs a draw count (expected "
                  "mix:<w1>{<phases>},<w2>{<phases>}[,...]xN)");
  }
  std::vector<MixArm> arms;
  for (auto& [weight, body] :
       grammar::split_mix_arms(kGrammar, token, cs.head)) {
    arms.push_back(MixArm{weight, Scenario::parse(body)});
  }
  return std::make_unique<MixPhase>(std::move(arms), cs.count);
}

std::unique_ptr<ScenarioPhase> parse_repeat(const std::string& param) {
  const std::string token = "repeat:" + param;
  std::string digits;
  std::string body;
  if (!grammar::split_braced(param, &digits, &body)) {
    grammar::fail(kGrammar, token, "expected repeat:<k>{<phases>}");
  }
  const auto times = util::parse_spec_uint("repeat", digits);
  if (times == 0) grammar::fail(kGrammar, token, "zero count");
  return std::make_unique<RepeatPhase>(static_cast<std::size_t>(times),
                                       Scenario::parse(body));
}

std::unique_ptr<ScenarioPhase> parse_floor(const std::string& param) {
  const std::string token = "floor:" + param;
  if (!grammar::all_digits(param)) {
    grammar::fail(kGrammar, token, "expected floor:<min_alive>");
  }
  const auto n = util::parse_spec_uint("floor", param);
  if (n == 0) grammar::fail(kGrammar, token, "floor needs min_alive >= 1");
  return std::make_unique<FloorPhase>(static_cast<std::size_t>(n));
}

/// Register a named preset: a fixed phase list a spec can pull in by
/// name. Presets live in the same registry as the primitive phases, so
/// an unknown preset error lists every registered spelling.
void add_preset(util::Registry<ScenarioPhase>* r, const std::string& name,
                const std::string& body_spec) {
  r->add(name,
         [name, body_spec](const std::string& param)
             -> std::unique_ptr<ScenarioPhase> {
           if (!param.empty()) {
             throw std::invalid_argument("scenario preset '" + name +
                                         "' takes no parameter (got '" +
                                         param + "')");
           }
           return std::make_unique<RepeatPhase>(
               1, Scenario::parse(body_spec), name);
         },
         {}, name);
}

}  // namespace

// ---- registry -------------------------------------------------------------

util::Registry<ScenarioPhase>& scenario_phase_registry() {
  static util::Registry<ScenarioPhase>* registry = [] {
    auto* r = new util::Registry<ScenarioPhase>(kGrammar);
    r->add("strike", parse_strike, {"delete"}, "strike[:<attack>][xN]");
    r->add("batch", parse_batch, {"batch_strike", "batchstrike"},
           "batch:<k>[,hubs|random][xN]");
    r->add("churn", parse_churn, {}, kChurnUsage);
    r->add("targeted", parse_targeted, {"targeted_attack", "run"},
           "targeted[:<attack>][xN]");
    r->add("until", parse_until, {"until_n_left", "untilnleft"},
           "until:<n>[,<attack>]");
    r->add("repeat", parse_repeat, {}, "repeat:<k>{...}");
    r->add("floor", parse_floor, {}, "floor:<min_alive>");
    r->add("untilfrac", parse_untilfrac, {"until_frac"},
           "untilfrac:<frac>[,<attack>]");
    r->add("join", parse_join, {}, "join[:<attach>][xN]");
    r->add("ramp", parse_ramp, {}, kRampUsage);
    r->add("mix", parse_mix, {}, "mix:<w>{...},<w>{...}xN");
    // Named presets (keep these registered after the primitives they
    // expand to): the spellings grids and dash_lab reference directly.
    add_preset(r, "paper-churn", "churn:0.3,0.1x500");
    add_preset(r, "max-degree-attack", "targeted:maxnode");
    add_preset(r, "until-half", "untilfrac:0.5,maxnode");
    add_preset(r, "until-quarter", "untilfrac:0.25,maxnode");
    // "trace:<file>" lives in the replay layer, which api headers
    // cannot include; both sides link into one library, so the phase
    // registers itself through this hook (replay/trace_phase.cpp).
    dash::replay::detail::register_trace_phase(r);
    return r;
  }();
  return *registry;
}

// ---- Scenario ---------------------------------------------------------------

Scenario& Scenario::operator=(const Scenario& other) {
  if (this == &other) return *this;
  phases_.clear();
  phases_.reserve(other.phases_.size());
  for (const auto& p : other.phases_) phases_.push_back(p->clone());
  return *this;
}

Scenario Scenario::parse(const std::string& spec) {
  Scenario out;
  for (const std::string& token :
       grammar::phase_tokens(spec, "scenario spec")) {
    out.add(scenario_phase_registry().create(token));
  }
  return out;
}

Scenario& Scenario::strike(std::size_t count, const std::string& attack) {
  return add(
      std::make_unique<AttackPhase>(Spelling::kStrike, attack, count));
}

Scenario& Scenario::batch_strike(std::size_t batch_size, std::size_t rounds,
                                 const std::string& mode) {
  return add(std::make_unique<BatchStrikePhase>(batch_size, mode, rounds));
}

Scenario& Scenario::churn(double join_rate, double leave_rate,
                          std::size_t events, std::size_t attach) {
  return add(std::make_unique<ChurnPhase>(false, join_rate, leave_rate,
                                          join_rate, leave_rate, events,
                                          attach));
}

Scenario& Scenario::targeted(const std::string& attack,
                             std::size_t max_deletions) {
  return add(std::make_unique<AttackPhase>(Spelling::kTargeted, attack,
                                           max_deletions));
}

Scenario& Scenario::targeted(AttackerFactory factory,
                             const std::string& label,
                             std::size_t max_deletions) {
  DASH_CHECK_MSG(factory != nullptr, "null attacker factory");
  return add(std::make_unique<AttackPhase>(std::move(factory), label,
                                           max_deletions));
}

Scenario& Scenario::until_n_left(std::size_t n, const std::string& attack) {
  return add(
      std::make_unique<AttackPhase>(Spelling::kUntil, attack, 0, n));
}

Scenario& Scenario::until_fraction(double frac, const std::string& attack) {
  return add(std::make_unique<AttackPhase>(Spelling::kUntilFrac, attack, 0,
                                           0, frac));
}

Scenario& Scenario::repeat(std::size_t times, Scenario body) {
  return add(std::make_unique<RepeatPhase>(times, std::move(body)));
}

Scenario& Scenario::floor(std::size_t min_alive) {
  return add(std::make_unique<FloorPhase>(min_alive));
}

Scenario& Scenario::add(std::unique_ptr<ScenarioPhase> phase) {
  DASH_CHECK_MSG(phase != nullptr, "null scenario phase");
  phases_.push_back(std::move(phase));
  return *this;
}

std::string Scenario::spec() const {
  std::string out;
  for (const auto& p : phases_) {
    if (!out.empty()) out += ";";
    out += p->spec();
  }
  return out;
}

// ---- Network::play ---------------------------------------------------------

Metrics Network::play(const Scenario& scenario, dash::util::Rng& rng,
                      const PlayOptions& opts) {
  PlayContext ctx{*this, rng, 1, &opts};
  for (const auto& phase : scenario.phases()) {
    if (ctx.stopped()) break;
    notify_phase(phase->spec());
    phase->execute(ctx);
  }
  return finish();
}

Metrics Network::play(const Scenario& scenario, dash::util::Rng& rng) {
  return play(scenario, rng, PlayOptions{});
}

Metrics Network::play(const Scenario& scenario, std::uint64_t seed,
                      const PlayOptions& opts) {
  dash::util::Rng rng(seed);
  return play(scenario, rng, opts);
}

Metrics Network::play(const Scenario& scenario, std::uint64_t seed) {
  return play(scenario, seed, PlayOptions{});
}

}  // namespace dash::api
