#ifndef HYBRIDTIER_COMMON_FLAGS_H_
#define HYBRIDTIER_COMMON_FLAGS_H_

/**
 * @file
 * Numeric command-line flag parsing shared by the example and bench
 * programs.
 */

#include <cstdint>
#include <limits>
#include <string>

namespace hybridtier {

/**
 * Parses `text` as the value of the unsigned integer flag `flag`: plain
 * decimal digits only (no sign, blank, or suffix), within [min, max].
 * Anything else is a user error (HT_FATAL, exit 1) quoting the token —
 * never an uncaught exception or a negative value wrapped to 2^64 - n.
 */
uint64_t ParseUintFlag(const std::string& flag, const std::string& text,
                       uint64_t min = 0,
                       uint64_t max = std::numeric_limits<uint64_t>::max());

}  // namespace hybridtier

#endif  // HYBRIDTIER_COMMON_FLAGS_H_
