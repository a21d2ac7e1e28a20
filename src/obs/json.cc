#include "obs/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace hybridtier {

void AppendJsonEscaped(std::ostream& out, std::string_view text) {
  for (const char ch : text) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << ch;
        }
    }
  }
}

void AppendJsonNumber(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << "0";
    return;
  }
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    out << buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  // Trim trailing zeros but keep one digit after the point.
  size_t len = std::strlen(buf);
  while (len > 1 && buf[len - 1] == '0' && buf[len - 2] != '.') {
    buf[--len] = '\0';
  }
  out << buf;
}

}  // namespace hybridtier
