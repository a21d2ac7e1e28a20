#ifndef HYBRIDTIER_COMMON_SPEC_READER_H_
#define HYBRIDTIER_COMMON_SPEC_READER_H_

/**
 * @file
 * The one reader behind every config-spec grammar: `cxl:` topologies,
 * `faults:` schedules, `fleet:` generators and tenant lists, plus the
 * real-valued and ratio CLI flags (`common/flags.h`).
 *
 * A `SpecReader` is a cursor over the spec string. Each grammar is a
 * small recursive-descent parser that `Consume`s its literals and reads
 * every value through the same three functions, so a number looks the
 * same in every grammar:
 *
 *   number  plain decimal: an optional '-', digits with an optional
 *           fraction, an optional signed exponent ("2", "0.5", "1e8",
 *           "2.5e-3"). No blanks, '+', hex, "inf" or "nan"; the value
 *           must be finite.
 *   uint    a number whose value is an integer in the caller's
 *           [min, max], checked before any cast ("64", "1e6").
 *   time    a number with an optional ns|us|ms|s suffix, >= 0 and
 *           below 2^63 ns ("5e8", "300ms", "2.5s"); fractions of a
 *           nanosecond truncate.
 *
 * Numbers are read greedily, so the characters that follow a value
 * ('-' between interval ends, '+' between windows, 'x' after a degrade
 * factor) need no lookahead. `FormatSpecNumber` is the matching
 * canonical writer for non-integer values.
 *
 * Every rejection fails the same way: `Fail` quotes the token at the
 * cursor together with its byte offset in the full spec (prefix
 * included), so a user staring at a 120-character topology string
 * knows which character to fix. Death tests gate the message shape.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "common/units.h"

namespace hybridtier {

/**
 * User-error exit for a malformed spec: quotes the bad token and its
 * byte offset within `spec` (HT_FATAL, exit 1). `offset` is where
 * `token` starts (byte 0 = the first character of the full spec).
 */
[[noreturn]] void SpecFatal(const std::string& spec, size_t offset,
                            const std::string& token,
                            const std::string& message);

/**
 * Cursor over a spec string. Copy it to remember a position that a
 * later error should point at. `what` names the value in messages
 * ("endpoint latency", "tenant weight").
 */
struct SpecReader {
  const std::string& spec;
  size_t pos = 0;  //!< Byte offset of the next unread character.

  bool AtEnd() const { return pos == spec.size(); }

  /** Advances past `literal` if the spec continues with it. */
  bool Consume(std::string_view literal);

  /**
   * Reads the longest run of word characters (letters, digits, '_',
   * '-', '.'): a key, a workload id, a churn kind. May be empty.
   */
  std::string ReadWord();

  /** Reads a number (see the file comment); fails if there is none. */
  double ReadNumber(const std::string& what);

  /** Reads an integer-valued number in [min, max]. */
  uint64_t ReadUint(const std::string& what, uint64_t min,
                    uint64_t max = std::numeric_limits<uint64_t>::max());

  /** Reads a time with an optional ns|us|ms|s suffix, in ns. */
  TimeNs ReadTime(const std::string& what);

  /**
   * Fails at the cursor. The quoted token is the run of word
   * characters at `pos` or, when `pos` is not on one, everything up to
   * the next ','.
   */
  [[noreturn]] void Fail(const std::string& message) const;
};

/** Canonical text of a non-integer spec value ("%.12g"). */
std::string FormatSpecNumber(double value);

}  // namespace hybridtier

#endif  // HYBRIDTIER_COMMON_SPEC_READER_H_
