#include "crew/common/json.h"

#include <charconv>
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

size_t JsonUnescape(std::string_view in, std::string* out) {
  size_t i = 0;
  while (i < in.size()) {
    const size_t run = i;
    while (i < in.size() && static_cast<unsigned char>(in[i]) >= 0x20 &&
           in[i] != '"' && in[i] != '\\') {
      ++i;
    }
    out->append(in, run, i - run);
    if (i == in.size()) break;
    if (in[i] == '"') return i;
    if (in[i] != '\\' || i + 1 == in.size()) return std::string_view::npos;
    const char esc = in[i + 1];
    i += 2;
    switch (esc) {
      case '"':
      case '\\':
        out->push_back(esc);
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case 't':
        out->push_back('\t');
        break;
      case 'u': {
        // Taken only when JsonEscape writes that byte as this very escape,
        // which rules out uppercase hex, bytes >= 0x20 and the bytes that
        // have a short escape.
        unsigned code = 0;
        const char* digits = in.data() + i;
        if (in.size() - i < 4 ||
            std::from_chars(digits, digits + 4, code, 16).ptr != digits + 4 ||
            code >= 0x20) {
          return std::string_view::npos;
        }
        const char byte = static_cast<char>(code);
        if (JsonEscape({&byte, 1}) != in.substr(i - 2, 6)) {
          return std::string_view::npos;
        }
        out->push_back(byte);
        i += 4;
        break;
      }
      default:
        return std::string_view::npos;
    }
  }
  return std::string_view::npos;
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
