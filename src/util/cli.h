// cli.h -- tiny declarative command-line option parser for the bench and
// example binaries. Supports `--name value`, `--name=value`, and boolean
// flags; prints a generated usage text on --help or parse error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dash::util {

class Options {
 public:
  explicit Options(std::string program_description);

  /// Register options; `target` must outlive parse().
  void add_flag(const std::string& name, bool* target,
                const std::string& help);
  void add_int(const std::string& name, std::int64_t* target,
               const std::string& help);
  void add_uint(const std::string& name, std::uint64_t* target,
                const std::string& help);
  void add_double(const std::string& name, double* target,
                  const std::string& help);
  void add_string(const std::string& name, std::string* target,
                  const std::string& help);

  /// Parse argv. Returns false (after printing usage) if --help was given
  /// or an unknown/malformed option was seen; callers should exit(0)/(2).
  bool parse(int argc, char** argv);

  std::string usage() const;
  bool help_requested() const { return help_requested_; }

 private:
  struct Opt {
    std::string name;
    std::string help;
    std::string kind;
    std::function<bool(const std::string&)> assign;
    bool is_flag = false;
    std::string default_repr;
  };

  const Opt* find(const std::string& name) const;

  std::string description_;
  std::string program_name_ = "prog";
  std::vector<Opt> opts_;
  bool help_requested_ = false;
};

/// The sizes of a doubling sweep -- min_n, 2*min_n, 4*min_n, ... up to
/// max_n -- as the --min-n / --max-n flags of the sweep binaries ask
/// for. Throws std::invalid_argument naming the flag when min_n is 0
/// (doubling never advances), min_n exceeds max_n, or max_n is beyond
/// the largest graph (node ids are 32-bit) -- where a sweep would
/// otherwise hang or allocate without bound.
std::vector<std::size_t> doubling_sizes(std::uint64_t min_n,
                                        std::uint64_t max_n);

}  // namespace dash::util
