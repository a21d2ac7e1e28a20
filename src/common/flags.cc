#include "common/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.h"
#include "common/spec_reader.h"

namespace hybridtier {

uint64_t ParseUintFlag(const std::string& flag, const std::string& text,
                       uint64_t min, uint64_t max) {
  // strtoull alone would wrap "-5" and skip leading blanks; accept only
  // a digit string that fits in 64 bits.
  const bool digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  errno = 0;
  const uint64_t value =
      digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE || value < min || value > max) {
    if (min == 0 && max == std::numeric_limits<uint64_t>::max()) {
      HT_FATAL(flag, " wants a non-negative 64-bit integer, got '", text,
               "'");
    }
    HT_FATAL(flag, " wants an integer in [", min, ", ", max, "], got '",
             text, "'");
  }
  return value;
}

double ParseDoubleFlag(const std::string& flag, const std::string& text,
                       double min, double max) {
  SpecReader reader{text};
  const double value = reader.ReadNumber(flag);
  if (!reader.AtEnd() || !(value >= min && value <= max)) {
    SpecReader{text}.Fail(detail::StrCat(flag, " wants a number in [", min,
                                         ", ", max, "]"));
  }
  return value;
}

double ParseRatioFlag(const std::string& flag, const std::string& text) {
  const std::string want = flag + " wants positive fast:slow shares like 1:8";
  SpecReader reader{text};
  const double fast = reader.ReadNumber(flag + " fast share");
  if (!reader.Consume(":")) reader.Fail(want);
  const double slow = reader.ReadNumber(flag + " slow share");
  if (!reader.AtEnd()) reader.Fail(want);
  if (!(fast > 0.0 && slow > 0.0)) SpecReader{text}.Fail(want);
  return fast / slow;
}

}  // namespace hybridtier
