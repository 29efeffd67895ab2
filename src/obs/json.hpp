// Private JSON text helpers shared by the Chrome-trace and metrics
// exporters (trace.cpp, metrics.cpp).  Not installed with the public
// headers.
#pragma once

#include <cstdio>
#include <string>

namespace quamax::obs::json {

/// Doubles are written with %.17g so the JSON round-trips the exact binary
/// value: the offline validators re-add span durations and window totals
/// and compare them exactly, which only works if nothing is rounded away.
inline std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `s` as the body of a JSON string literal.
inline std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace quamax::obs::json
