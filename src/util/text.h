// text.h -- the two string chores every text input shares: whitespace
// trim and single-character list splitting.
#pragma once

#include <string>
#include <vector>

namespace dash::util {

/// `s` without leading/trailing spaces, tabs, CRs and LFs.
std::string trimmed(const std::string& s);

/// The items between `sep`s, in order. Empty items are kept ("a,,b"
/// has three, "" has one) so a grammar can reject them by name; with
/// drop_empty they are skipped, as CLI name lists ("dash,,sdash,")
/// want.
std::vector<std::string> split(const std::string& s, char sep,
                               bool drop_empty = false);

}  // namespace dash::util
