#include "api/phase_grammar.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <stdexcept>

#include "attack/factory.h"
#include "util/csv.h"
#include "util/registry.h"
#include "util/text.h"

namespace dash::api::grammar {

bool all_digits(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c); });
}

namespace {

/// The top-level items of `s` between `sep`s (braces nest). Items are
/// not trimmed and may be empty.
std::vector<std::string> split_toplevel(const std::string& s, char sep,
                                        const std::string& what) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (char c : s) {
    if (c == '{') ++depth;
    if (c == '}' && --depth < 0) {
      throw std::invalid_argument("unbalanced '}' in " + what + ": '" + s +
                                  "'");
    }
    if (c == sep && depth == 0) {
      out.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (depth != 0) {
    throw std::invalid_argument("unbalanced '{' in " + what + ": '" + s +
                                "'");
  }
  out.push_back(current);
  return out;
}

std::string rate_str(double v) { return util::CsvWriter::to_field(v); }

/// "<name>:<args>" plus the "x<count>" suffix when count > 0.
std::string with_count(std::string out, std::size_t count) {
  if (count > 0) {
    out += 'x';
    out += std::to_string(count);
  }
  return out;
}

std::string with_attach(std::string out, std::size_t attach) {
  if (attach != 2) {
    out += ',';
    out += std::to_string(attach);
  }
  return out;
}

}  // namespace

void fail(const std::string& grammar, const std::string& token,
          const std::string& why) {
  throw std::invalid_argument("bad " + grammar + " '" + token + "': " + why);
}

std::vector<std::string> phase_tokens(const std::string& spec,
                                      const std::string& what) {
  std::vector<std::string> tokens = split_toplevel(spec, ';', what);
  for (std::string& token : tokens) {
    token = util::trimmed(token);
    if (token.empty()) {
      throw std::invalid_argument("empty phase in " + what + ": '" + spec +
                                  "'");
    }
  }
  return tokens;
}

CountSplit split_count(const std::string& grammar, const std::string& phase,
                       const std::string& args) {
  CountSplit out;
  out.head = args;
  const auto pos = args.find_last_of('x');
  if (pos == std::string::npos) return out;
  const std::string suffix = args.substr(pos + 1);
  if (!all_digits(suffix)) return out;
  out.count = static_cast<std::size_t>(util::parse_spec_uint(phase, suffix));
  if (out.count == 0) {
    throw std::invalid_argument("zero count in " + grammar + " '" + phase +
                                ":" + args + "'");
  }
  out.head = args.substr(0, pos);
  out.has_count = true;
  return out;
}

double parse_rate(const std::string& grammar, const std::string& phase,
                  const std::string& s) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || s.empty() ||
      v < 0.0 || v > 1.0) {
    throw std::invalid_argument("bad rate in " + grammar + " '" + phase +
                                "': '" + s +
                                "' (expected a number in [0, 1])");
  }
  return v;
}

void check_attack(const std::string& grammar, const std::string& phase,
                  const std::string& attack) {
  if (attack::attack_registry().contains(attack)) return;
  std::string names;
  for (const auto& n : attack::attack_names()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  throw std::invalid_argument("unknown attack '" + attack + "' in " +
                              grammar + " '" + phase +
                              "' (registered: " + names + ")");
}

bool split_braced(const std::string& s, std::string* digits,
                  std::string* body) {
  const auto brace = s.find('{');
  if (brace == std::string::npos || s.back() != '}' ||
      !all_digits(s.substr(0, brace))) {
    return false;
  }
  *digits = s.substr(0, brace);
  *body = s.substr(brace + 1, s.size() - brace - 2);
  return true;
}

std::vector<MixArmText> split_mix_arms(const std::string& grammar,
                                       const std::string& token,
                                       const std::string& head,
                                       std::uint64_t max_weight) {
  std::vector<MixArmText> arms;
  for (const std::string& item :
       split_toplevel(head, ',', grammar + " '" + token + "'")) {
    std::string digits;
    std::string body;
    if (!split_braced(item, &digits, &body)) {
      throw std::invalid_argument("bad mix arm '" + item + "' in " +
                                  grammar + " '" + token +
                                  "' (expected <weight>{<phases>})");
    }
    const std::uint64_t weight =
        util::parse_spec_uint("mix", digits, max_weight);
    if (weight == 0) {
      throw std::invalid_argument("zero weight in " + grammar + " '" +
                                  token + "'");
    }
    arms.emplace_back(weight, std::move(body));
  }
  return arms;
}

// ---- printers -------------------------------------------------------------

std::string strike_spec(const std::string& attack, std::size_t count) {
  return with_count("strike:" + attack, count);
}

std::string targeted_spec(const std::string& attack,
                          std::size_t max_deletions) {
  return with_count("targeted:" + attack, max_deletions);
}

std::string until_spec(std::size_t n, const std::string& attack) {
  return "until:" + std::to_string(n) + "," + attack;
}

std::string untilfrac_spec(double frac, const std::string& attack) {
  return "untilfrac:" + rate_str(frac) + "," + attack;
}

std::string batch_spec(std::size_t size, const std::string& mode,
                       std::size_t rounds) {
  return with_count("batch:" + std::to_string(size) + "," + mode, rounds);
}

std::string churn_spec(double join_rate, double leave_rate,
                       std::size_t attach, std::size_t events) {
  return with_count(with_attach("churn:" + rate_str(join_rate) + "," +
                                    rate_str(leave_rate),
                                attach),
                    events);
}

std::string ramp_spec(double join_start, double leave_start,
                      double join_end, double leave_end, std::size_t attach,
                      std::size_t events) {
  return with_count(
      with_attach("ramp:" + rate_str(join_start) + "," +
                      rate_str(leave_start) + "," + rate_str(join_end) +
                      "," + rate_str(leave_end),
                  attach),
      events);
}

std::string join_spec(std::size_t attach, std::size_t count) {
  return with_count("join:" + std::to_string(attach), count);
}

std::string mix_spec(const std::vector<MixArmText>& arms,
                     std::size_t draws) {
  std::string out("mix:");
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(arms[i].first);
    out += '{';
    out += arms[i].second;
    out += '}';
  }
  return with_count(std::move(out), draws);
}

std::string repeat_spec(std::size_t times, const std::string& body) {
  return "repeat:" + std::to_string(times) + "{" + body + "}";
}

std::string floor_spec(std::size_t min_alive) {
  return "floor:" + std::to_string(min_alive);
}

}  // namespace dash::api::grammar
