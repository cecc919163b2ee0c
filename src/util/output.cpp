#include "util/output.h"

#include <fstream>

namespace dash::util {

void flush_checked(std::ostream& out, const std::string& path) {
  out.flush();
  if (!out) throw WriteError(path);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  flush_checked(out, path);
}

}  // namespace dash::util
