// output.h -- checked output files: a write that did not land (full
// disk, missing directory, /dev/full) fails naming the path instead of
// passing for success. Every CLI maps WriteError to exit code 1.
#pragma once

#include <ostream>
#include <stdexcept>
#include <string>

namespace dash::util {

struct WriteError : std::runtime_error {
  explicit WriteError(const std::string& path)
      : std::runtime_error("cannot write '" + path + "'") {}
};

/// Flush `out` and throw WriteError naming `path` unless every byte
/// written to it so far landed.
void flush_checked(std::ostream& out, const std::string& path);

/// Replace the file at `path` with `content`, checked.
void write_file(const std::string& path, const std::string& content);

}  // namespace dash::util
