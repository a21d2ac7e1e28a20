#include "common/spec_reader.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"

namespace hybridtier {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-' || c == '.';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

std::string RangeText(uint64_t min, uint64_t max) {
  if (max == std::numeric_limits<uint64_t>::max() && min <= 1) {
    return min == 0 ? "a non-negative integer" : "a positive integer";
  }
  return detail::StrCat("an integer in [", min, ", ", max, "]");
}

}  // namespace

void SpecFatal(const std::string& spec, size_t offset,
               const std::string& token, const std::string& message) {
  HT_FATAL("bad token '", token, "' at byte ", offset, " of spec '", spec,
           "': ", message);
}

bool SpecReader::Consume(std::string_view literal) {
  if (spec.compare(pos, literal.size(), literal) != 0) return false;
  pos += literal.size();
  return true;
}

std::string SpecReader::ReadWord() {
  const size_t start = pos;
  while (pos < spec.size() && IsWordChar(spec[pos])) ++pos;
  return spec.substr(start, pos - start);
}

double SpecReader::ReadNumber(const std::string& what) {
  const char* const first = spec.data() + pos;
  const char* const last = spec.data() + spec.size();
  const char* p = first;
  const auto skip_digits = [&] {
    const char* const start = p;
    while (p < last && IsDigit(*p)) ++p;
    return p - start;
  };
  if (p < last && *p == '-') ++p;
  auto mantissa_digits = skip_digits();
  if (p < last && *p == '.') {
    ++p;
    mantissa_digits += skip_digits();
  }
  if (mantissa_digits == 0) Fail("not a number; expected " + what);
  if (p < last && (*p == 'e' || *p == 'E')) {
    const char* const exponent = p++;
    if (p < last && (*p == '+' || *p == '-')) ++p;
    if (skip_digits() == 0) p = exponent;  // Not an exponent after all.
  }
  double value = 0.0;
  const auto [end, error] = std::from_chars(first, p, value);
  if (error != std::errc() || end != p) {
    Fail(what + " is out of the finite double range");
  }
  pos += static_cast<size_t>(p - first);
  return value;
}

uint64_t SpecReader::ReadUint(const std::string& what, uint64_t min,
                              uint64_t max) {
  const SpecReader start = *this;
  const double value = ReadNumber(what);
  // A plain digit string converts exactly (a 20-digit seed keeps every
  // bit); any other spelling ("1e6", "64.0") must be an integral double
  // inside the uint64 range before it is cast.
  uint64_t result = 0;
  const char* const last = spec.data() + pos;
  const auto [end, error] =
      std::from_chars(spec.data() + start.pos, last, result);
  if (error != std::errc() || end != last) {
    if (!(value >= 0.0 && value < 0x1p64 && value == std::floor(value))) {
      start.Fail(what + " must be " + RangeText(min, max));
    }
    result = static_cast<uint64_t>(value);
  }
  if (result < min || result > max) {
    start.Fail(what + " must be " + RangeText(min, max));
  }
  return result;
}

TimeNs SpecReader::ReadTime(const std::string& what) {
  const SpecReader start = *this;
  double ns = ReadNumber(what);
  if (Consume("us")) {
    ns *= 1e3;
  } else if (Consume("ms")) {
    ns *= 1e6;
  } else if (Consume("s")) {
    ns *= 1e9;
  } else {
    Consume("ns");
  }
  if (!(ns >= 0.0 && ns < 0x1p63)) {
    start.Fail(what + " must be >= 0 and below 2^63 ns");
  }
  return static_cast<TimeNs>(ns);
}

void SpecReader::Fail(const std::string& message) const {
  size_t end = pos;
  while (end < spec.size() && IsWordChar(spec[end])) ++end;
  if (end == pos) end = std::min(spec.find(',', pos), spec.size());
  SpecFatal(spec, pos, spec.substr(pos, end - pos), message);
}

std::string FormatSpecNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

}  // namespace hybridtier
