#include "crew/common/json.h"

#include <cmath>
#include <cstdio>

#include "crew/common/string_util.h"

namespace crew {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrPrintf("\\u%04x", c);
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

std::string JsonStr(std::string_view s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace crew
