#include "util/cli.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/check.h"

namespace dash::util {

namespace {

// All three parse with std::from_chars: locale-independent (the strto*
// family honours LC_NUMERIC, so "--rate 0.3" would fail under a
// comma-decimal locale), no errno, and whole-string strictness falls
// out of the end-pointer check.

bool parse_i64(const std::string& s, std::int64_t* out) {
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || s.empty()) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || s.empty()) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_f64(const std::string& s, double* out) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || s.empty()) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

Options::Options(std::string program_description)
    : description_(std::move(program_description)) {}

const Options::Opt* Options::find(const std::string& name) const {
  for (const auto& o : opts_)
    if (o.name == name) return &o;
  return nullptr;
}

void Options::add_flag(const std::string& name, bool* target,
                       const std::string& help) {
  DASH_CHECK(find(name) == nullptr);
  opts_.push_back({name, help, "flag",
                   [target](const std::string& v) {
                     if (v == "" || v == "true" || v == "1") {
                       *target = true;
                     } else if (v == "false" || v == "0") {
                       *target = false;
                     } else {
                       return false;
                     }
                     return true;
                   },
                   true, *target ? "true" : "false"});
}

void Options::add_int(const std::string& name, std::int64_t* target,
                      const std::string& help) {
  DASH_CHECK(find(name) == nullptr);
  opts_.push_back({name, help, "int",
                   [target](const std::string& v) {
                     return parse_i64(v, target);
                   },
                   false, std::to_string(*target)});
}

void Options::add_uint(const std::string& name, std::uint64_t* target,
                       const std::string& help) {
  DASH_CHECK(find(name) == nullptr);
  opts_.push_back({name, help, "uint",
                   [target](const std::string& v) {
                     return parse_u64(v, target);
                   },
                   false, std::to_string(*target)});
}

void Options::add_double(const std::string& name, double* target,
                         const std::string& help) {
  DASH_CHECK(find(name) == nullptr);
  opts_.push_back({name, help, "float",
                   [target](const std::string& v) {
                     return parse_f64(v, target);
                   },
                   false, std::to_string(*target)});
}

void Options::add_string(const std::string& name, std::string* target,
                         const std::string& help) {
  DASH_CHECK(find(name) == nullptr);
  opts_.push_back({name, help, "string",
                   [target](const std::string& v) {
                     *target = v;
                     return true;
                   },
                   false, *target});
}

std::string Options::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nUsage: " << program_name_ << " [options]\n";
  for (const auto& o : opts_) {
    os << "  --" << o.name;
    if (!o.is_flag) os << " <" << o.kind << ">";
    os << "\n      " << o.help << " (default: " << o.default_repr << ")\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

bool Options::parse(int argc, char** argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), usage().c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const Opt* opt = find(arg);
    if (opt == nullptr) {
      std::fprintf(stderr, "unknown option '--%s'\n%s", arg.c_str(),
                   usage().c_str());
      return false;
    }
    if (!opt->is_flag && !has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option '--%s' requires a value\n", arg.c_str());
        return false;
      }
      value = argv[++i];
      has_value = true;
    }
    if (!opt->assign(value)) {
      std::fprintf(stderr, "bad value '%s' for option '--%s' (%s)\n",
                   value.c_str(), arg.c_str(), opt->kind.c_str());
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> doubling_sizes(std::uint64_t min_n,
                                        std::uint64_t max_n) {
  constexpr std::uint64_t kLargest = std::numeric_limits<std::uint32_t>::max();
  if (min_n == 0) throw std::invalid_argument("--min-n must be >= 1");
  if (min_n > max_n) {
    throw std::invalid_argument("--min-n " + std::to_string(min_n) +
                                " exceeds --max-n " + std::to_string(max_n));
  }
  if (max_n > kLargest) {
    throw std::invalid_argument("--max-n " + std::to_string(max_n) +
                                " exceeds the largest graph size " +
                                std::to_string(kLargest));
  }
  std::vector<std::size_t> sizes;
  for (std::uint64_t n = min_n;; n *= 2) {
    sizes.push_back(static_cast<std::size_t>(n));
    if (n > max_n / 2) break;  // the next doubling passes max_n
  }
  return sizes;
}

}  // namespace dash::util
