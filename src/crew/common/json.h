#ifndef CREW_COMMON_JSON_H_
#define CREW_COMMON_JSON_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace crew {

/// Escapes a string for inclusion in a JSON document (quotes, backslashes,
/// control characters). The one escaper every CREW writer uses.
std::string JsonEscape(std::string_view s);

/// The exact inverse of JsonEscape: decodes the escaped text at the front
/// of `in`, up to (not including) its first unescaped '"', appending the
/// bytes to `*out`. Accepts only what JsonEscape writes: raw bytes >= 0x20
/// other than '"' and '\\', the escapes \" \\ \n \r \t, and \u00xx
/// (lowercase hex) for the other bytes below 0x20. Returns how many bytes
/// of `in` it read, or std::string_view::npos when `in` holds anything
/// else or has no closing '"'.
size_t JsonUnescape(std::string_view in, std::string* out);

/// `s` escaped and wrapped in double quotes: a complete JSON string.
std::string JsonStr(std::string_view s);

/// Formats a double as a JSON number that round-trips bit-exactly (%.17g).
/// Non-finite values, which JSON cannot represent, degrade to "null";
/// readers map null back to NaN.
std::string JsonDouble(double v);

}  // namespace crew

#endif  // CREW_COMMON_JSON_H_
