#include "exp/chaos.h"

#include <csignal>
#include <ostream>
#include <stdexcept>

namespace dash::exp {

ChaosPlan parse_chaos(const std::string& spec) {
  ChaosPlan plan;
  if (spec.empty()) return plan;
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (kind == "kill") {
    plan.kind = ChaosPlan::Kind::kKill;
  } else if (kind == "torn") {
    plan.kind = ChaosPlan::Kind::kTorn;
  } else {
    throw std::invalid_argument("bad chaos spec '" + spec +
                                "' (expected kill:<cell> or torn:<cell>)");
  }
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    throw std::invalid_argument("chaos spec '" + spec +
                                "' names no cell (kill:<cell>)");
  }
  std::size_t cell = 0;
  for (std::size_t i = colon + 1; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c < '0' || c > '9') {
      throw std::invalid_argument("chaos spec '" + spec +
                                  "': cell must be a decimal index");
    }
    cell = cell * 10 + static_cast<std::size_t>(c - '0');
  }
  plan.cell = cell;
  return plan;
}

void chaos_strike(const ChaosPlan& plan, std::size_t cell,
                  std::ostream& out, const std::string& record_line) {
  if (!plan.armed() || cell != plan.cell) return;
  if (plan.kind == ChaosPlan::Kind::kTorn) {
    out << record_line.substr(0, record_line.size() / 2);
    out.flush();
  }
  // SIGKILL, not exit(): no flushing, no atexit, no stack unwinding --
  // the same shape as an OOM kill or a pulled machine.
  ::raise(SIGKILL);
}

}  // namespace dash::exp
