#ifndef HYBRIDTIER_OBS_JSON_H_
#define HYBRIDTIER_OBS_JSON_H_

/**
 * @file
 * The JSON scalar writers shared by the trace and metrics sinks. One
 * fixed formatter for every writer keeps output bytes identical across
 * platforms and between the two files.
 */

#include <ostream>
#include <string_view>

namespace hybridtier {

/**
 * Appends `text` JSON-escaped, without surrounding quotes: `"` and `\`
 * are backslash-escaped and control characters become `\n`, `\t` or
 * `\u00XX`. Names are ASCII identifiers in practice, but sweep cell
 * labels embed axis values, so escape defensively.
 */
void AppendJsonEscaped(std::ostream& out, std::string_view text);

/**
 * Appends `value` in the shortest plain notation: integers without a
 * fraction, fractions with up to six decimals and trailing zeros
 * trimmed; non-finite values as 0.
 */
void AppendJsonNumber(std::ostream& out, double value);

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_JSON_H_
