#include "util/text.h"

#include <utility>

namespace dash::util {

std::string trimmed(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split(const std::string& s, char sep,
                               bool drop_empty) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = s.find(sep, begin);
    std::string item = s.substr(begin, end - begin);
    if (!drop_empty || !item.empty()) out.push_back(std::move(item));
    if (end == std::string::npos) return out;
    begin = end + 1;
  }
}

}  // namespace dash::util
